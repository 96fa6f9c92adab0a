(* Deterministic property runner.

   Every case is identified by an integer [case_seed]: the value is
   regenerated from [Util.Rng.create case_seed] at the recorded size, so a
   failing case is replayable from the three integers the corpus stores.
   Case seeds are drawn from a per-property SplitMix chain keyed on
   (master seed, property name) — independent of registration order and of
   any --filter selection, and requiring no shared state, so properties
   can run on [Runtime.Pool] domains unchanged. *)

type failure_info = {
  case_seed : int;
  size : int;
  case_index : int;
  shrink_steps : int;
  printed : string;
  error : string option;
}

type outcome = { prop : string; cases : int; failure : failure_info option }

type 'a fail = {
  f_value : 'a;
  f_original : 'a;
  f_case_seed : int;
  f_size : int;
  f_case_index : int;
  f_shrink_steps : int;
  f_error : string option;
}

type 'a status = Passed of int | Failed of 'a fail

type t = {
  name : string;
  count : int;
  check_fn : metrics:Runtime.Metrics.t option -> seed:int -> outcome;
  replay_fn : metrics:Runtime.Metrics.t option -> case_seed:int -> size:int -> outcome;
}

let name t = t.name

let count t = t.count

(* --- seed derivation --------------------------------------------------- *)

let positive i64 = Int64.to_int (Int64.shift_right_logical i64 2)

(* The FNV-1a hash of the property name, folded into the master seed. *)
let chain_for ~seed prop_name =
  let key = Util.Rng.key () in
  Util.Rng.key_string key prop_name;
  Util.Rng.create (seed lxor positive (Util.Rng.key_hash key))

let next_case_seed chain = positive (Util.Rng.bits64 chain)

(* --- case execution ---------------------------------------------------- *)

(* [None] = law holds; [Some err] = counterexample ([err] carries the
   exception text when the law raised instead of returning [false]). *)
let check_law law v =
  match law v with
  | true -> None
  | false -> Some None
  | exception e -> Some (Some (Printexc.to_string e))

let shrink_eval_budget = 4000

let minimize arb law v0 err0 =
  Obs.Span.with_ "prop.shrink" @@ fun () ->
  let budget = ref shrink_eval_budget in
  let steps = ref 0 in
  let err = ref err0 in
  let rec go v =
    let smaller =
      Seq.find_map
        (fun c ->
          if !budget <= 0 then None
          else begin
            decr budget;
            match check_law law c with Some e -> Some (c, e) | None -> None
          end)
        (Arb.shrink arb v)
    in
    match smaller with
    | Some (c, e) when !budget > 0 ->
      incr steps;
      err := e;
      go c
    | Some (c, e) ->
      incr steps;
      err := e;
      c
    | None -> v
  in
  let v = go v0 in
  (v, !steps, !err)

let run_case arb law ~case_seed ~size ~case_index =
  let rng = Util.Rng.create case_seed in
  let v = Gen.run (Arb.gen arb) rng ~size in
  match check_law law v with
  | None -> None
  | Some err0 ->
    let shrunk, steps, err = minimize arb law v err0 in
    Some
      {
        f_value = shrunk;
        f_original = v;
        f_case_seed = case_seed;
        f_size = size;
        f_case_index = case_index;
        f_shrink_steps = steps;
        f_error = err;
      }

let size_at ~min_size ~max_size ~count i =
  if count <= 1 then max_size
  else min_size + ((max_size - min_size) * i / (count - 1))

let run ?(count = 40) ?(min_size = 2) ?(max_size = 30) ~seed ~name arb law =
  let chain = chain_for ~seed name in
  let rec go i =
    if i >= count then Passed count
    else begin
      let case_seed = next_case_seed chain in
      let size = size_at ~min_size ~max_size ~count i in
      match run_case arb law ~case_seed ~size ~case_index:i with
      | None -> go (i + 1)
      | Some f -> Failed f
    end
  in
  go 0

(* --- metrics ----------------------------------------------------------- *)

let record_cases metrics name n =
  match metrics with
  | None -> ()
  | Some m ->
    Runtime.Metrics.incr_named ~by:n m "prop.cases_total";
    Runtime.Metrics.incr_named ~by:n m (Printf.sprintf "prop.%s.cases" name)

let record_failure metrics name steps =
  match metrics with
  | None -> ()
  | Some m ->
    Runtime.Metrics.incr_named m "prop.failures_total";
    Runtime.Metrics.incr_named ~by:steps m "prop.shrink_steps_total";
    Runtime.Metrics.incr_named ~by:steps m (Printf.sprintf "prop.%s.shrink_steps" name)

(* --- registered properties --------------------------------------------- *)

let failure_of_fail arb (f : _ fail) =
  {
    case_seed = f.f_case_seed;
    size = f.f_size;
    case_index = f.f_case_index;
    shrink_steps = f.f_shrink_steps;
    printed = Arb.print arb f.f_value;
    error = f.f_error;
  }

let make ~name:prop_name ?(count = 40) ?(min_size = 2) ?(max_size = 30) arb law =
  let check_fn ~metrics ~seed =
    Obs.Span.with_ ~args:[ ("property", prop_name) ] "prop.generate" @@ fun () ->
    match run ~count ~min_size ~max_size ~seed ~name:prop_name arb law with
    | Passed n ->
      record_cases metrics prop_name n;
      { prop = prop_name; cases = n; failure = None }
    | Failed f ->
      record_cases metrics prop_name (f.f_case_index + 1);
      record_failure metrics prop_name f.f_shrink_steps;
      { prop = prop_name; cases = f.f_case_index + 1; failure = Some (failure_of_fail arb f) }
  in
  let replay_fn ~metrics ~case_seed ~size =
    record_cases metrics prop_name 1;
    match run_case arb law ~case_seed ~size ~case_index:0 with
    | None -> { prop = prop_name; cases = 1; failure = None }
    | Some f ->
      record_failure metrics prop_name f.f_shrink_steps;
      { prop = prop_name; cases = 1; failure = Some (failure_of_fail arb f) }
  in
  { name = prop_name; count; check_fn; replay_fn }

let check ?metrics ~seed t = t.check_fn ~metrics ~seed

let replay ?metrics ~case_seed ~size t = t.replay_fn ~metrics ~case_seed ~size

(* --- corpus regression -------------------------------------------------- *)

type replay_result =
  | Replayed of { path : string; entry : Corpus.entry; outcome : outcome }
  | Unreadable of { path : string; reason : string }

let regress ?metrics ~dir props =
  List.map
    (fun (path, parsed) ->
      match parsed with
      | Error reason -> Unreadable { path; reason }
      | Ok (entry : Corpus.entry) -> (
        match List.find_opt (fun p -> p.name = entry.prop) props with
        | None ->
          Unreadable { path; reason = Printf.sprintf "no registered property %S" entry.prop }
        | Some p ->
          Replayed
            { path; entry; outcome = replay ?metrics ~case_seed:entry.seed ~size:entry.size p }))
    (Corpus.load ~dir)
