(* Trace renderers.

   [to_chrome_json] emits the Chrome trace-event format (the JSON object
   form with a "traceEvents" array), loadable by chrome://tracing and
   Perfetto. One event per line, events sorted by (track, seq), and
   timestamps printed as microseconds with fixed three-digit nanosecond
   fractions — so output under an injected deterministic clock is
   byte-for-byte reproducible.

   [text_profile] folds the same events into a hierarchical self/total
   profile: spans are merged by call path (name stack), children are
   printed under their parents sorted by total time, and self time is
   total minus the children's totals.

   [validate_chrome_json] re-parses exported JSON with [Assess.Json.parse]
   and checks the trace schema: a traceEvents array whose
   entries carry name/ph/ts/pid/tid, phases limited to B/E/i, per-tid
   Begin/End balance, and per-tid monotone timestamps. *)

(* --- chrome trace-event JSON -------------------------------------------- *)

let args_json args =
  match args with
  | [] -> ""
  | _ ->
    Printf.sprintf ",\"args\":{%s}"
      (String.concat ","
         (List.map
            (fun (k, v) ->
              Printf.sprintf "\"%s\":\"%s\"" (Assess.Json.escape_string k)
                (Assess.Json.escape_string v))
            args))

let event_json (e : Event.t) =
  Printf.sprintf "{\"name\":\"%s\",\"ph\":\"%s\",\"ts\":%Ld.%03Ld,\"pid\":0,\"tid\":%d%s%s}"
    (Assess.Json.escape_string e.Event.name) (Event.phase_code e.Event.phase)
    (Int64.div e.Event.ts_ns 1000L) (Int64.rem e.Event.ts_ns 1000L) e.Event.track
    (match e.Event.phase with Event.Instant -> ",\"s\":\"t\"" | Event.Begin | Event.End -> "")
    (args_json e.Event.args)

let to_chrome_json events =
  let events = List.sort Event.by_track_seq events in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf (event_json e))
    events;
  Buffer.add_string buf "\n]}\n";
  Buffer.contents buf

(* --- hierarchical text profile ------------------------------------------ *)

type node = {
  mutable total_ns : int64;
  mutable count : int;
  children : (string, node) Hashtbl.t;
}

let new_node () = { total_ns = 0L; count = 0; children = Hashtbl.create 4 }

let child_of node name =
  match Hashtbl.find_opt node.children name with
  | Some c -> c
  | None ->
    let c = new_node () in
    Hashtbl.replace node.children name c;
    c

(* Merge spans into a call tree keyed by name path. Unmatched events
   (possible after ring-buffer drops) are skipped rather than rejected:
   the profile is a lossy summary, [Event.check] is the strict view. *)
let profile_tree events =
  let root = new_node () in
  let module M = Map.Make (Int) in
  let stacks = ref M.empty in
  List.iter
    (fun (e : Event.t) ->
      let stack = match M.find_opt e.Event.track !stacks with Some s -> s | None -> [] in
      match e.Event.phase with
      | Event.Instant -> ()
      | Event.Begin ->
        let parent = match stack with [] -> root | (_, _, node) :: _ -> node in
        let node = child_of parent e.Event.name in
        stacks := M.add e.Event.track ((e.Event.name, e.Event.ts_ns, node) :: stack) !stacks
      | Event.End -> (
        match stack with
        | (name, ts0, node) :: rest when name = e.Event.name ->
          node.count <- node.count + 1;
          node.total_ns <- Int64.add node.total_ns (Int64.sub e.Event.ts_ns ts0);
          stacks := M.add e.Event.track rest !stacks
        | _ -> ()))
    (List.sort Event.by_track_seq events);
  root

let ms ns = Int64.to_float ns /. 1e6

let text_profile events =
  let root = profile_tree events in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "%-44s %8s %12s %12s\n" "span" "count" "total(ms)" "self(ms)");
  let rec render indent node =
    let kids =
      List.sort
        (fun (_, a) (_, b) -> compare b.total_ns a.total_ns)
        (Hashtbl.fold (fun k v acc -> (k, v) :: acc) node.children [])
    in
    List.iter
      (fun (name, child) ->
        let child_total =
          Hashtbl.fold (fun _ c acc -> Int64.add acc c.total_ns) child.children 0L
        in
        let label = String.make (2 * indent) ' ' ^ name in
        Buffer.add_string buf
          (Printf.sprintf "%-44s %8d %12.3f %12.3f\n" label child.count (ms child.total_ns)
             (ms (Int64.sub child.total_ns child_total)));
        render (indent + 1) child)
      kids
  in
  render 0 root;
  Buffer.contents buf

(* --- schema validation --------------------------------------------------- *)

exception Invalid of string

let fail fmt = Printf.ksprintf (fun s -> raise (Invalid s)) fmt

let validate_chrome_json text =
  let module M = Map.Make (Int) in
  let module J = Assess.Json in
  try
    let json =
      match J.parse text with
      | Ok j -> j
      | Error e -> fail "offset %d: %s" e.J.pos e.J.msg
    in
    let events =
      match J.member "traceEvents" json with
      | Some (J.List es) -> es
      | Some _ -> fail "traceEvents is not an array"
      | None -> fail "missing traceEvents"
    in
    let stacks = ref M.empty in
    List.iteri
      (fun i e ->
        let str k =
          match J.member k e with
          | Some (J.String s) -> s
          | _ -> fail "event %d: missing string field %S" i k
        in
        let num k =
          match J.member k e with
          | Some (J.Number f) -> f
          | _ -> fail "event %d: missing numeric field %S" i k
        in
        let name = str "name" in
        let ph = str "ph" in
        let ts = num "ts" in
        let _pid = num "pid" in
        let tid = int_of_float (num "tid") in
        let stack, last_ts =
          match M.find_opt tid !stacks with Some s -> s | None -> ([], neg_infinity)
        in
        if ts < last_ts then
          fail "event %d: tid %d timestamp went backwards (%g after %g)" i tid ts last_ts;
        let stack =
          match ph with
          | "i" -> stack
          | "B" -> name :: stack
          | "E" -> (
            match stack with
            | top :: rest when top = name -> rest
            | top :: _ -> fail "event %d: end %S does not match open span %S" i name top
            | [] -> fail "event %d: end %S with no open span" i name)
          | _ -> fail "event %d: unknown phase %S" i ph
        in
        stacks := M.add tid (stack, ts) !stacks)
      events;
    M.iter
      (fun tid (stack, _) ->
        match stack with
        | [] -> ()
        | name :: _ -> fail "tid %d: span %S never ended" tid name)
      !stacks;
    Ok (List.length events)
  with Invalid msg -> Error msg

(* --- span-name subsystems ------------------------------------------------ *)

let subsystems events =
  List.sort_uniq compare
    (List.filter_map
       (fun (e : Event.t) ->
         match (e.Event.phase, String.index_opt e.Event.name '.') with
         | Event.Begin, Some i -> Some (String.sub e.Event.name 0 i)
         | _ -> None)
       events)
