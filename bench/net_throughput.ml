(* Network data-path throughput: batched vs. one-write-per-message.

   Spawns a real loopback cluster per cell — one domain per replica,
   each running the lib/net socket runtime over Unix-domain sockets
   with tick_ms = 0, so the serve loop free-runs and throughput is
   bounded by the data path (syscalls, encoding, buffer management)
   rather than the synchronization timer.  Every cell runs twice: with
   per-peer write coalescing (the default) and with batch = false (one
   write(2) per message — the pre-batching path, what `crdtsync serve
   --no-batch` selects), and the ratio of the two is the figure this
   bench exists to pin.

   Batching changes syscall counts, never bytes: both modes of a cell
   move the same protocol traffic, and test_net_convergence separately
   pins wire-byte equality against the simulator.  Recorded per cell:
   delivered messages/sec and wire bytes/sec (cluster-wide, over the
   slowest replica's wall time), write(2) calls per tick per peer
   (<= 1.0 is the coalescing invariant), p99 tick latency, and the
   domain count the host offers (`cores` — throughput figures from a
   1-core host carry scheduling noise at larger cluster sizes).

   The run fails (non-zero exit through an exception) if the batched
   path is slower than the unbatched baseline on every cell — the CI
   net-bench-smoke gate.  With --json the sweep lands in
   BENCH_net_throughput.json. *)

module Registry = Crdt_engine.Registry

type node_res = {
  messages : int;
  wire_bytes : int;
  writes : int;
  ticks : int;
  wall_s : float;
  p99_us : float;
  backend : string;
  clean : bool;
}

type row = {
  crdt : string;
  protocol : string;
  nodes : int;
  batch : bool;
  domains : int;  (** codec fan-out width each replica ran with. *)
  evloop : string;  (** readiness backend that actually ran. *)
  msgs : int;
  msgs_per_sec : float;
  bytes_per_sec : float;
  writes_per_tick_per_peer : float;
  p99_tick_us : float;  (** worst replica's p99 tick duration. *)
  wall_s : float;  (** slowest replica. *)
  clean : bool;  (** all replicas terminated by agreement. *)
}

let uniq = ref 0

(* One cluster run: [n] replicas over Unix-domain sockets in a private
   temp directory, one domain each. *)
let run_cluster ?(domains = 1) ?(evloop = `Auto) ~crdt ~protocol ~n ~batch
    ~ops_ticks () =
  let module S = (val Registry.find_crdt crdt) in
  let maker = Registry.find_protocol protocol in
  let module P =
    (val Registry.instantiate maker
           (module S.C : Crdt_proto.Protocol_intf.CRDT
             with type t = S.C.t
              and type op = S.C.op))
  in
  let module R = Crdt_net.Runtime.Make (P) in
  incr uniq;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "crdtsync-net-tp-%d-%d" (Unix.getpid ()) !uniq)
  in
  (try Unix.mkdir dir 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let addr id =
    Crdt_net.Addr.Unix_sock (Filename.concat dir (Printf.sprintf "n%d.sock" id))
  in
  let digest state =
    Digest.string (Crdt_wire.Codec.encode_to_string S.C.codec state)
  in
  let run_node id =
    let peers =
      List.filter_map
        (fun j -> if j = id then None else Some (j, addr j))
        (List.init n Fun.id)
    in
    let cfg =
      {
        (Crdt_net.Runtime.default_config ~id ~listen:(addr id) ~peers ~total:n)
        with
        tick_ms = 0 (* free-run: the loop, not the clock, is the limit *);
        ops_ticks;
        quiet_ticks = 25;
        max_ticks = 1_000_000;
        max_wall_s = 600. (* backstop: a crashed peer must not hang the bench *);
        batch;
        domains;
        evloop;
      }
    in
    R.serve ~digest cfg ~ops:(fun ~tick state ->
        S.serve_ops ~id ~tick state)
  in
  let workers =
    List.init n (fun id ->
        Domain.spawn (fun () ->
            match run_node id with
            | r ->
                Ok
                  {
                    messages = r.R.counters.Crdt_engine.Trace.messages;
                    wire_bytes = r.R.counters.Crdt_engine.Trace.wire_bytes;
                    writes = r.R.writes;
                    ticks = r.R.ticks;
                    wall_s = r.R.wall_s;
                    p99_us = r.R.tick_p99_us;
                    backend = r.R.backend;
                    clean = r.R.clean;
                  }
            | exception e -> Error (Printexc.to_string e)))
  in
  let results = List.map Domain.join workers in
  (try
     Array.iter
       (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
       (Sys.readdir dir);
     Unix.rmdir dir
   with Sys_error _ | Unix.Unix_error _ -> ());
  let nodes =
    List.map
      (function
        | Ok r -> r
        | Error msg -> failwith (Printf.sprintf "replica failed: %s" msg))
      results
  in
  let sum (f : node_res -> int) = List.fold_left (fun acc r -> acc + f r) 0 nodes in
  let maxf (f : node_res -> float) =
    List.fold_left (fun acc r -> Float.max acc (f r)) 0. nodes
  in
  let wall = Float.max 1e-9 (maxf (fun r -> r.wall_s)) in
  let msgs = sum (fun r -> r.messages) in
  let tick_peer_slots = sum (fun r -> r.ticks * (n - 1)) in
  {
    crdt;
    protocol;
    nodes = n;
    batch;
    domains;
    evloop =
      (match nodes with r :: _ -> r.backend | [] -> "none");
    msgs;
    msgs_per_sec = float_of_int msgs /. wall;
    bytes_per_sec = float_of_int (sum (fun r -> r.wire_bytes)) /. wall;
    writes_per_tick_per_peer =
      float_of_int (sum (fun r -> r.writes))
      /. float_of_int (max 1 tick_peer_slots);
    p99_tick_us = maxf (fun r -> r.p99_us);
    wall_s = wall;
    clean = List.for_all (fun (r : node_res) -> r.clean) nodes;
  }

let ratio (r : row) (base : row) =
  r.msgs_per_sec /. Float.max 1e-9 base.msgs_per_sec

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a.(Array.length a / 2)

(* The trial whose msgs/sec is the median: the row a table or the JSON
   reports for a configuration run several times. *)
let median_row rows =
  let a = Array.of_list rows in
  Array.sort (fun (x : row) y -> Float.compare x.msgs_per_sec y.msgs_per_sec) a;
  a.(Array.length a / 2)

let print_rows rows =
  Report.table
    ~header:
      [
        "crdt"; "protocol"; "n"; "mode"; "dom"; "evloop"; "msgs"; "msgs/s";
        "MB/s"; "writes/tick/peer"; "p99 tick us"; "wall s";
      ]
    (List.map
       (fun r ->
         [
           (if r.clean then r.crdt else r.crdt ^ "!");
           r.protocol;
           string_of_int r.nodes;
           (if r.batch then "batched" else "no-batch");
           string_of_int r.domains;
           r.evloop;
           string_of_int r.msgs;
           Printf.sprintf "%.0f" r.msgs_per_sec;
           Printf.sprintf "%.2f" (r.bytes_per_sec /. 1e6);
           Printf.sprintf "%.2f" r.writes_per_tick_per_peer;
           Printf.sprintf "%.0f" r.p99_tick_us;
           Printf.sprintf "%.2f" r.wall_s;
         ])
       rows)

let write_json path ~scale ~speedup rows =
  let oc = open_out path in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n  \"bench\": \"net_throughput\",\n  \"schema\": 1,\n";
  out "  \"host\": %s,\n" (Report.host_json ());
  out "  \"scale\": %S,\n" scale;
  out
    "  \"note\": \"loopback unix-socket clusters, tick_ms=0 (free-running \
     loop); batched = per-peer write coalescing, no-batch = one write(2) \
     per message; wire bytes identical in both modes\",\n";
  out "  \"sweep\": [\n";
  List.iteri
    (fun i r ->
      out
        "    {\"crdt\": %S, \"protocol\": %S, \"nodes\": %d, \"batch\": %b,\n\
        \     \"domains\": %d, \"evloop\": %S,\n\
        \     \"messages\": %d, \"msgs_per_sec\": %.1f, \"bytes_per_sec\": \
         %.1f,\n\
        \     \"writes_per_tick_per_peer\": %.3f, \"p99_tick_us\": %.1f, \
         \"wall_s\": %.3f, \"clean\": %b}%s\n"
        r.crdt r.protocol r.nodes r.batch r.domains r.evloop r.msgs
        r.msgs_per_sec r.bytes_per_sec r.writes_per_tick_per_peer r.p99_tick_us
        r.wall_s r.clean
        (if i = List.length rows - 1 then "" else ","))
    rows;
  out "  ],\n  \"speedup\": [\n";
  let rs = speedup in
  List.iteri
    (fun i ((crdt, protocol, nodes), ratio) ->
      out
        "    {\"crdt\": %S, \"protocol\": %S, \"nodes\": %d, \
         \"msgs_per_sec_ratio\": %.3f}%s\n"
        crdt protocol nodes ratio
        (if i = List.length rs - 1 then "" else ","))
    rs;
  out "  ]\n}\n";
  close_out oc;
  Report.note "wrote %s" path

let run ?(quick = false) ?json_path () =
  Report.section "net_throughput"
    "socket-runtime throughput, batched vs one-write-per-message";
  Report.note "host offers %d domain(s)" (Domain.recommended_domain_count ());
  let cells =
    if quick then [ ("gset", "scuttlebutt", 2); ("gset", "delta-bp+rr", 2) ]
    else
      List.concat_map
        (fun (crdt, protocol) ->
          List.map (fun n -> (crdt, protocol, n)) [ 2; 4; 8 ])
        [
          ("gset", "delta-bp+rr");
          ("gset", "scuttlebutt");
          ("gmap", "delta-bp+rr");
          ("gmap", "scuttlebutt");
        ]
  in
  let ops_ticks = if quick then 60 else 150 in
  (* Quick cells finish in a few milliseconds, where one scheduling
     draw on a loaded host swings a ratio by tens of percent.  So every
     gated ratio is taken over [trials] interleaved trials — the runs a
     ratio compares go back to back inside one trial, in alternating
     order, so a swing in host load hits both — and the gates read the
     median of the per-trial ratios.  Tables and JSON show each
     configuration's median trial.  Default-scale cells run long enough
     that one trial is representative. *)
  let trials = if quick then 9 else 1 in
  let runs =
    List.map
      (fun (crdt, protocol, n) ->
        let run batch = run_cluster ~crdt ~protocol ~n ~batch ~ops_ticks () in
        let pair i =
          if i mod 2 = 0 then
            let b = run true in
            (b, run false)
          else
            let u = run false in
            (run true, u)
        in
        ((crdt, protocol, n), List.init trials pair))
      cells
  in
  let rows =
    List.concat_map
      (fun (_, pairs) ->
        [ median_row (List.map fst pairs); median_row (List.map snd pairs) ])
      runs
  in
  let rs =
    List.map
      (fun (cell, pairs) ->
        (cell, median (List.map (fun (b, u) -> ratio b u) pairs)))
      runs
  in
  (* Sharded sweep: the headline cell, batched, at codec fan-out widths
     1/2/4, plus an explicit select run to pin epoll vs select.  The
     widths all move identical bytes (the lockstep byte-equality test
     pins that); this sweep records what the fan-out does to
     throughput. *)
  let sh_crdt, sh_protocol, sh_n =
    if quick then ("gset", "delta-bp+rr", 2) else ("gset", "delta-bp+rr", 4)
  in
  let widths = [ 1; 2; 4 ] in
  let sharded_trials =
    List.init trials (fun i ->
        let run domains =
          run_cluster ~domains ~crdt:sh_crdt ~protocol:sh_protocol ~n:sh_n
            ~batch:true ~ops_ticks ()
        in
        let by_width =
          if i mod 2 = 0 then List.map run widths
          else List.rev (List.map run (List.rev widths))
        in
        let select =
          run_cluster ~evloop:`Select ~crdt:sh_crdt ~protocol:sh_protocol
            ~n:sh_n ~batch:true ~ops_ticks ()
        in
        (by_width, select))
  in
  let sharded =
    List.mapi
      (fun i _ -> median_row (List.map (fun (w, _) -> List.nth w i) sharded_trials))
      widths
  in
  let select_row = median_row (List.map snd sharded_trials) in
  (* Per width, the median over trials of that trial's ratio to its own
     domains=1 run. *)
  let sharded_ratios =
    List.mapi
      (fun i domains ->
        ( domains,
          median
            (List.map
               (fun (w, _) -> ratio (List.nth w i) (List.hd w))
               sharded_trials) ))
      widths
  in
  let all_rows = rows @ sharded @ [ select_row ] in
  print_rows all_rows;
  List.iter
    (fun ((crdt, protocol, nodes), ratio) ->
      Report.note "%s/%s n=%d: batched/unbatched msgs/sec = %.2fx (median of %d)"
        crdt protocol nodes ratio trials)
    rs;
  (* Both gates run BEFORE the JSON lands: a violating sweep must fail
     the run, not publish rows a later reader would take at face
     value. *)
  let best = List.fold_left (fun acc (_, r) -> Float.max acc r) 0. rs in
  (* Even a median of quick trials keeps a few percent of scheduler
     noise on a loaded host; a ratio just under parity there is a
     statistical tie, not a regression.  The floor still trips on a real
     data-path regression (an extra copy or per-frame syscall shows up
     as a sustained, much larger gap). *)
  let floor = if quick then 0.9 else 1.0 in
  if best < floor then
    failwith
      (Printf.sprintf
         "net_throughput: batched path regressed below the unbatched \
          baseline on every cell (best median ratio %.2f < %.2f)"
         best floor)
  else Report.note "best batched/unbatched ratio: %.2fx" best;
  (* Sharded gate, keyed off the recorded host core count (the same
     figure the JSON's host header carries).  On one core the fan-out
     cannot win, so the requirement is bounded overhead: every sharded
     row within the 0.9 noise floor of domains=1 (the fanout_min
     granularity threshold is what keeps this honest).  With 4+ cores
     the requirement is actual scaling: >= 2x messages/sec from 1 to 4
     domains.  In between, only the floor applies. *)
  let cores = Report.host_cores () in
  List.iter
    (fun (domains, ratio) ->
      if domains > 1 then begin
        Report.note
          "sharded %s/%s n=%d domains=%d: %.2fx vs domains=1 (median of %d)"
          sh_crdt sh_protocol sh_n domains ratio trials;
        if ratio < 0.9 then
          failwith
            (Printf.sprintf
               "net_throughput: domains=%d regressed to %.2fx of the \
                domains=1 throughput (floor 0.90) on %d core(s)"
               domains ratio cores)
      end)
    sharded_ratios;
  if cores >= 4 then (
    match List.assoc_opt 4 sharded_ratios with
    | Some ratio when ratio < 2.0 ->
        failwith
          (Printf.sprintf
             "net_throughput: %d cores available but domains=4 reached only \
              %.2fx of domains=1 (target >= 2x)"
             cores ratio)
    | _ -> ())
  else
    Report.note
      "host has %d core(s): the >=2x scaling target at domains=4 needs 4+ \
       cores; only the regression floor applies here"
      cores;
  let sel_ratio =
    match sharded with
    | base :: _ when base.evloop <> select_row.evloop ->
        Some (ratio select_row base)
    | _ -> None
  in
  (match sel_ratio with
  | Some r ->
      Report.note "select/%s msgs/sec ratio at domains=1: %.2fx"
        (match sharded with base :: _ -> base.evloop | [] -> "?")
        r
  | None -> ());
  match json_path with
  | None -> ()
  | Some path ->
      write_json path
        ~scale:(if quick then "quick" else "default")
        ~speedup:rs all_rows
