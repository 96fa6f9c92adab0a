(* Shared plumbing: clocks, summary statistics, the result line, and the
   recorded deterministic-view digests. *)

let now = Unix.gettimeofday

let nproc = Domain.recommended_domain_count ()

(* Worker domains for sweep and classify: the pool's default, nproc - 1,
   which leaves a core to the submitting domain. With nproc workers on a
   2-vCPU guest, CPU steal stalls the domains' stop-the-world handshakes:
   measured at 50% steal, CPU per sweep profile grew 48% and its p50
   latency 3x, against 5% and 1.4x with nproc - 1 workers. *)
let jobs = Runtime.Pool.default_jobs ()

let time f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

(* [Assess.Stats.median], which only refuses an empty series. *)
let median xs =
  match Assess.Stats.median (Array.of_list xs) with
  | Ok m -> m
  | Error e -> failwith ("median: " ^ Assess.Stats.error_to_string e)

(* Nearest-rank percentile, [p] in percent. *)
let percentile p xs = Util.Stats.percentile p xs

let sum xs = List.fold_left ( +. ) 0. xs

(* Peak resident set (VmHWM) of a live process, in MB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
              float_of_int kb /. 1024.)
        | _ -> scan ()
        | exception End_of_file -> failwith ("no VmHWM in " ^ path)
      in
      scan ())

(* Machine-wide (busy, steal) clock ticks from /proc/stat: time the
   hypervisor gave to other guests shows as steal. *)
let host_ticks () =
  match In_channel.with_open_text "/proc/stat" In_channel.input_line with
  | Some line -> (
    match List.filter (( <> ) "") (String.split_on_char ' ' line) with
    | "cpu" :: user :: nice :: system :: _idle :: _iowait :: irq :: softirq :: steal :: _ ->
      let i = int_of_string in
      (i user + i nice + i system + i irq + i softirq, i steal)
    | _ -> (0, 0))
  | None -> (0, 0)
  | exception Sys_error _ -> (0, 0)

(* The share of the machine's CPU time that the hypervisor stole between
   two [host_ticks] readings; 0 on a host that reports no steal. *)
let steal_share (busy0, steal0) (busy1, steal1) =
  let busy = busy1 - busy0 and steal = steal1 - steal0 in
  if busy + steal = 0 then 0. else float_of_int steal /. float_of_int (busy + steal)

(* [f ()], its wall time, and its run time: the wall less the share the
   hypervisor stole from the guest meanwhile. Throughput in run time
   holds still where steal swings from run to run; README.md, "Run time",
   gives the measurements. *)
let time_ran f =
  let h0 = host_ticks () in
  let x, wall = time f in
  (x, wall, wall *. (1. -. steal_share h0 (host_ticks ())))

(* Median wall of [n] calls of [f], as run time: less the share of the
   calls' time that the hypervisor stole. *)
let median_ran n f =
  let h0 = host_ticks () in
  let m = median (List.init n (fun _ -> snd (time f))) in
  m *. (1. -. steal_share h0 (host_ticks ()))

(* CPU seconds used so far by this process, all threads and domains. *)
let cpu_seconds () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* CPU seconds used so far by another live process: utime + stime from
   /proc/<pid>/stat, in USER_HZ (100 per second on Linux) ticks. *)
let process_cpu_seconds pid =
  let line = In_channel.with_open_text (Printf.sprintf "/proc/%d/stat" pid) In_channel.input_all in
  (* fields after the parenthesised command name, which may hold spaces *)
  let after = String.rindex line ')' + 2 in
  let rest = String.sub line after (String.length line - after) in
  match String.split_on_char ' ' rest with
  | _state :: _ppid :: _pgrp :: _session :: _tty :: _tpgid :: _flags :: _minflt :: _cminflt
    :: _majflt :: _cmajflt :: utime :: stime :: _ ->
    float_of_int (int_of_string utime + int_of_string stime) /. 100.
  | _ -> failwith "unreadable /proc stat"

(* ------------------------------------------------------------------ *)
(* The run's result. *)

type metric = { name : string; unit_ : string; value : float }

let metric name unit_ value = { name; unit_; value }

type result = { attempted : int; failed : int; mismatches : int; metrics : metric list }

(* Human-readable report on stderr, then the one-line JSON result as the
   last line of stdout. *)
let emit r =
  List.iter (fun m -> Printf.eprintf "  %-40s %16.6f %s\n" m.name m.value m.unit_) r.metrics;
  let correct = r.mismatches = 0 && r.failed = 0 in
  Printf.eprintf "  attempted %d, failed %d (error_rate %.6f), mismatches %d\n%!" r.attempted
    r.failed
    (float_of_int r.failed /. float_of_int (max 1 r.attempted))
    r.mismatches;
  let num x = Assess.Json.Number x in
  let json =
    Assess.Json.Obj
      [
        ("correct", Assess.Json.Bool correct);
        ("attempted", num (float_of_int r.attempted));
        ("failed", num (float_of_int r.failed));
        ( "metrics",
          Assess.Json.Obj
            (List.map
               (fun m ->
                 ( m.name,
                   Assess.Json.Obj [ ("value", num m.value); ("unit", Assess.Json.String m.unit_) ] ))
               r.metrics) );
      ]
  in
  print_endline (Assess.Json.to_string json);
  if not correct then exit 1

(* ------------------------------------------------------------------ *)
(* Deterministic-view digests. digests.txt holds the reference commit's,
   one "<name> <seed> <md5>" line each: the units of --seed 2008, and a
   fixed reference unit per workload that every run checks. *)

let digest_file = "perfbench/digests.txt"

let recorded =
  lazy
    (In_channel.with_open_text digest_file In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter_map (fun line ->
           match String.split_on_char ' ' (String.trim line) with
           | [ w; s; d ] when w.[0] <> '#' -> Some ((w, int_of_string s), d)
           | _ -> None))

let digest_json j = Digest.to_hex (Digest.string (Assess.Json.to_string j))

(* Print the digest of one unit of work on stdout, where it can be
   compared with the parent commit's, and check it against the record;
   true on a mismatch. Without a record it only prints, unless
   [required]. *)
let check_digest ?(required = false) ~workload ~seed digest =
  let verdict, mismatch =
    match List.assoc_opt (workload, seed) (Lazy.force recorded) with
    | None when required -> (" NOT RECORDED", true)
    | None -> ("", false)
    | Some d when d = digest -> (" matches record", false)
    | Some d -> (" MISMATCH, recorded " ^ d, true)
  in
  Printf.printf "digest %s %d %s%s\n%!" workload seed digest verdict;
  mismatch

(* Run [unit k] for k = 0, 1, ... until [seconds] have passed, at least
   once. Also returns this process's peak RSS right after unit 0, a
   figure of fixed work that does not grow with the number of units a
   fast machine fits in. *)
let run_units ~seconds unit =
  let t0 = now () in
  let rss = ref 0. in
  let rec go k acc =
    if k > 0 && now () -. t0 >= seconds then List.rev acc
    else begin
      let u = unit k in
      if k = 0 then rss := peak_rss_mb "self";
      go (k + 1) (u :: acc)
    end
  in
  let units = go 0 [] in
  (units, !rss)

(* Unit [k] of a run with seed [seed] works on this system seed, so unit
   0 of [--seed 2008] is the library's default seed. *)
let unit_seed ~seed k = seed + (1_000_003 * k)
