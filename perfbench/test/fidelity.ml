(* For one request of each serve workload, the in-process replay the
   traced run times must produce exactly the output bytes a live
   Serve.Server session replies with, and both must equal the oracle. *)

module Wire = Serve.Wire
module R = Perfbench_serve.Serve_replay

(* The reply a real server session sends for [frame], reassembled from
   its result chunks. *)
let served frame =
  let server = Serve.Server.create Serve.Server.default_config in
  let to_server_r, to_server_w = Unix.pipe () in
  let to_client_r, to_client_w = Unix.pipe () in
  let session =
    Thread.create
      (fun () ->
        let ic = Unix.in_channel_of_descr to_server_r
        and oc = Unix.out_channel_of_descr to_client_w in
        Serve.Server.serve_session server ic oc;
        close_out_noerr oc;
        close_in_noerr ic)
      ()
  in
  let oc = Unix.out_channel_of_descr to_server_w
  and ic = Unix.in_channel_of_descr to_client_r in
  output_string oc frame;
  flush oc;
  let rec read chunks =
    match Wire.read_message ic with
    | `Msg (Wire.Result_chunk { first; outputs }) -> read ((first, outputs) :: chunks)
    | `Msg (Wire.Eval_done { total; _ }) -> (total, List.rev chunks)
    | `Msg m -> failwith ("unexpected reply " ^ Wire.tag_name m)
    | `Eof | `Error _ -> failwith "session ended early"
  in
  let total, chunks = read [] in
  close_out oc;
  Thread.join session;
  close_in ic;
  Serve.Server.stop server;
  let width = match chunks with (_, m) :: _ -> Wire.matrix_width m | [] -> 0 in
  let rows = Array.make total [||] in
  List.iter
    (fun (first, m) ->
      for i = 0 to Wire.matrix_rows m - 1 do
        rows.(first + i) <- Wire.matrix_row m i
      done)
    chunks;
  if total = 0 then Wire.matrix_init ~rows:0 ~width (fun _ _ -> false)
  else Wire.matrix_of_vectors rows

let check name (r : R.request) =
  let st = R.create_state () in
  let replayed = R.replay st (R.layers ()) ~timed:true r.frame in
  R.release_state st;
  let live = served r.frame in
  let same a b = Wire.matrix_width a = Wire.matrix_width b && a.Wire.m_data = b.Wire.m_data in
  if not (same replayed live) then failwith (name ^ ": replay differs from the served reply");
  if not (same live r.expected) then failwith (name ^ ": served reply differs from the oracle");
  Printf.printf "%s: %d vectors, replay = served = oracle\n" name (Wire.matrix_rows live)

let () =
  check "serve-hot" (R.hot_pool ~seed:2008).(0);
  check "serve-churn" (R.churn_pool ~seed:2008).(0)
