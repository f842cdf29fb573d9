(* End-to-end convergence over real sockets.

   Spawns one `crdtsync serve` process per replica (the lib/net
   event-loop runtime), fully meshed over unix-domain sockets in a
   private temp directory, running delta BP+RR.  Each replica applies
   its deterministic per-tick operations, synchronizes, and on mutual
   Done writes its hex-encoded final state (canonical lib/wire
   encoding) to a file.  The test asserts every replica wrote the
   byte-identical encoding, that it decodes, and that the decoded state
   has the weight the workload predicts.

   This is the wire stack exercised for real: codecs framing actual
   socket traffic, partial reads reassembled by the frame feed, and the
   Done handshake terminating the processes.

   On top of plain convergence, two engine-level properties are pinned
   here: Scuttlebutt and state-based — protocols that never go silent
   on their own — terminate over sockets via the dirty-based quiescence
   handshake,
   and a `--lockstep` cluster reports exactly the wire bytes the
   in-process simulator predicts for the same seeded workload (the
   sim-vs-socket cross-check: both drivers run the identical registry
   workload, so their byte accounting must agree to the byte). *)

open Crdt_core
module Codec = Crdt_wire.Codec
module Registry = Crdt_engine.Registry

let crdtsync () =
  let candidates =
    [
      "../bin/crdtsync.exe";
      Filename.concat (Filename.dirname Sys.executable_name)
        "../bin/crdtsync.exe";
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> Alcotest.fail "crdtsync.exe not found; build bin/ first"

let temp_dir () =
  let base = Filename.get_temp_dir_name () in
  let rec go k =
    let d =
      Filename.concat base
        (Printf.sprintf "crdtsync-net-%d-%d" (Unix.getpid ()) k)
    in
    match Unix.mkdir d 0o700 with
    | () -> d
    | exception Unix.Unix_error (Unix.EEXIST, _, _) -> go (k + 1)
  in
  go 0

let rm_rf dir =
  Array.iter
    (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    (try Sys.readdir dir with Sys_error _ -> [||]);
  try Unix.rmdir dir with Unix.Unix_error _ -> ()

let of_hex s =
  if String.length s mod 2 <> 0 then Alcotest.fail "odd-length hex state";
  String.init
    (String.length s / 2)
    (fun i -> Char.chr (int_of_string ("0x" ^ String.sub s (2 * i) 2)))

let read_hex_line path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic)

let status_to_string = function
  | Unix.WEXITED n -> Printf.sprintf "exit %d" n
  | Unix.WSIGNALED n -> Printf.sprintf "signal %d" n
  | Unix.WSTOPPED n -> Printf.sprintf "stopped %d" n

(* Reap every replica, killing the cluster if it outlives [timeout_s]
   (a hung handshake must fail the test, not hang dune runtest). *)
let wait_all ~timeout_s pids =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let pending = ref pids in
  let failed = ref [] in
  while !pending <> [] && Unix.gettimeofday () < deadline do
    pending :=
      List.filter
        (fun pid ->
          match Unix.waitpid [ Unix.WNOHANG ] pid with
          | 0, _ -> true
          | _, Unix.WEXITED 0 -> false
          | _, st ->
              failed := status_to_string st :: !failed;
              false)
        !pending;
    if !pending <> [] then Unix.sleepf 0.02
  done;
  if !pending <> [] then begin
    List.iter
      (fun pid -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
      !pending;
    List.iter (fun pid -> ignore (Unix.waitpid [] pid)) !pending;
    Alcotest.failf "cluster still running after %.0fs; killed" timeout_s
  end;
  match !failed with
  | [] -> ()
  | fs -> Alcotest.failf "replica failure: %s" (String.concat ", " fs)

(* Scrape an integer field out of a one-line JSON object without a JSON
   dependency; the metrics schema is flat enough for a substring scan. *)
let scrape_int ~key json =
  let pat = Printf.sprintf "%S:" key in
  let lp = String.length pat and lj = String.length json in
  let rec find i =
    if i + lp > lj then Alcotest.failf "no %s field in %s" key json
    else if String.sub json i lp = pat then i + lp
    else find (i + 1)
  in
  let start = find 0 in
  let stop = ref start in
  while
    !stop < lj && match json.[!stop] with '0' .. '9' -> true | _ -> false
  do
    incr stop
  done;
  if !stop = start then Alcotest.failf "non-numeric %s in %s" key json;
  int_of_string (String.sub json start (!stop - start))

(* Run an [n]-replica full mesh of `crdtsync serve` processes on [crdt]
   under [protocol]; returns each replica's raw encoded final state and,
   when [metrics] is set, the cluster's total wire bytes as reported by
   `--metrics-out`. *)
let run_cluster ?(protocol = "delta-bp+rr") ?(lockstep = false)
    ?(metrics = false) ?(no_batch = false) ?(domains = 1) ?evloop ?fanout_min
    ~crdt ~n ~ops () =
  let exe = crdtsync () in
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let sock i = Filename.concat dir (Printf.sprintf "n%d.sock" i) in
  let state i = Filename.concat dir (Printf.sprintf "state%d.hex" i) in
  let metrics_file i = Filename.concat dir (Printf.sprintf "m%d.json" i) in
  let ids = List.init n Fun.id in
  let pids =
    List.map
      (fun i ->
        let peers =
          List.concat_map
            (fun j ->
              if j = i then []
              else [ "--peer"; Printf.sprintf "%d=unix:%s" j (sock j) ])
            ids
        in
        let argv =
          [
            exe; "serve";
            "--id"; string_of_int i;
            "--listen"; "unix:" ^ sock i;
            "--crdt"; crdt;
            "--protocol"; protocol;
            "--ops"; string_of_int ops;
            "--tick-ms"; "10";
            "--max-ticks"; "3000";
            "--state-out"; state i;
          ]
          @ (if lockstep then [ "--lockstep" ] else [])
          @ (if no_batch then [ "--no-batch" ] else [])
          @ (if metrics then [ "--metrics-out"; metrics_file i ] else [])
          @ (if domains = 1 then [] else [ "--domains"; string_of_int domains ])
          @ (match evloop with
            | None -> []
            | Some b -> [ "--evloop"; b ])
          @ (match fanout_min with
            | None -> []
            | Some f -> [ "--fanout-min"; string_of_int f ])
          @ peers
        in
        let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
        let pid =
          Unix.create_process exe (Array.of_list argv) Unix.stdin devnull
            Unix.stderr
        in
        Unix.close devnull;
        pid)
      ids
  in
  wait_all ~timeout_s:60. pids;
  let encodings =
    List.map
      (fun i ->
        let hex = read_hex_line (state i) in
        Alcotest.(check bool)
          (Printf.sprintf "replica %d wrote a state" i)
          true
          (String.length hex > 0);
        of_hex hex)
      ids
  in
  let wire_bytes =
    if not metrics then 0
    else
      List.fold_left
        (fun acc i ->
          acc + scrape_int ~key:"wire_bytes" (read_hex_line (metrics_file i)))
        0 ids
  in
  (encodings, wire_bytes)

let all_identical = function
  | [] | [ _ ] -> true
  | x :: rest -> List.for_all (String.equal x) rest

(* -- kill -9 + restart from --data-dir ----------------------------------- *)

let rec rm_rf_deep dir =
  Array.iter
    (fun f ->
      let p = Filename.concat dir f in
      if Sys.is_directory p then rm_rf_deep p
      else try Sys.remove p with Sys_error _ -> ())
    (try Sys.readdir dir with Sys_error _ -> [||]);
  try Unix.rmdir dir with Unix.Unix_error _ -> ()

(* A real crash: an [n]-replica durable mesh, one replica SIGKILLed as
   soon as its segment log holds bytes, then restarted from the same
   --data-dir.  The restarted process recovers checkpoint ⊔ deltas from
   disk, re-applies its deterministic idempotent ops from tick 0, and
   the recovery exchange plus the survivors' redial loop must win back
   whatever the kill destroyed — the cluster still converges
   byte-identically.  The victim's metrics pin that it genuinely booted
   from disk (recovered segments > 0), so a silently-fresh restart
   cannot pass. *)
let kill_restart_test ~protocol () =
  let n = 3 and ops = 40 and victim = 1 in
  let exe = crdtsync () in
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf_deep dir) @@ fun () ->
  let sock i = Filename.concat dir (Printf.sprintf "n%d.sock" i) in
  let state i = Filename.concat dir (Printf.sprintf "state%d.hex" i) in
  let metrics_file i = Filename.concat dir (Printf.sprintf "m%d.json" i) in
  let data i = Filename.concat dir (Printf.sprintf "data%d" i) in
  let ids = List.init n Fun.id in
  let spawn i =
    let peers =
      List.concat_map
        (fun j ->
          if j = i then []
          else [ "--peer"; Printf.sprintf "%d=unix:%s" j (sock j) ])
        ids
    in
    let argv =
      [
        exe; "serve";
        "--id"; string_of_int i;
        "--listen"; "unix:" ^ sock i;
        "--crdt"; "gset";
        "--protocol"; protocol;
        "--ops"; string_of_int ops;
        "--tick-ms"; "10";
        "--max-ticks"; "3000";
        "--state-out"; state i;
        "--metrics-out"; metrics_file i;
        "--data-dir"; data i;
        "--checkpoint-every"; "8";
        "--fsync"; "never";
      ]
      @ peers
    in
    let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
    let pid =
      Unix.create_process exe (Array.of_list argv) Unix.stdin devnull
        Unix.stderr
    in
    Unix.close devnull;
    pid
  in
  let pids = List.map spawn ids in
  (* Kill only once the victim has persisted something, so the restart
     is a real recovery, not a fresh boot. *)
  let log_bytes i =
    let d = data i in
    if not (Sys.file_exists d) then 0
    else
      Array.fold_left
        (fun acc f -> acc + (Unix.stat (Filename.concat d f)).Unix.st_size)
        0 (Sys.readdir d)
  in
  let deadline = Unix.gettimeofday () +. 20. in
  while log_bytes victim = 0 && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.01
  done;
  if log_bytes victim = 0 then
    Alcotest.fail "victim never persisted anything to its --data-dir";
  let victim_pid = List.nth pids victim in
  Unix.kill victim_pid Sys.sigkill;
  (match Unix.waitpid [] victim_pid with
  | _, Unix.WSIGNALED s when s = Sys.sigkill -> ()
  | _, st -> Alcotest.failf "victim did not die of SIGKILL: %s"
               (status_to_string st));
  let restarted = spawn victim in
  let survivors = List.filteri (fun i _ -> i <> victim) pids in
  wait_all ~timeout_s:60. (restarted :: survivors);
  let encodings = List.map (fun i -> of_hex (read_hex_line (state i))) ids in
  Alcotest.(check bool)
    "all replicas (including the restarted one) encode byte-identically" true
    (all_identical encodings);
  (match Codec.decode_string Gset.Of_int.codec (List.hd encodings) with
  | Error e -> Alcotest.failf "state decode: %s" (Codec.error_to_string e)
  | Ok s ->
      Alcotest.(check int) "no element lost across the kill" (n * ops)
        (Gset.Of_int.weight s));
  let victim_metrics = read_hex_line (metrics_file victim) in
  Alcotest.(check bool) "victim booted from a non-empty segment log" true
    (scrape_int ~key:"segments" victim_metrics > 0)

(* The root cause of the kill -9 flake above, pinned deterministically.
   A restarted peer dials in while its predecessor's connection still
   awaits its EOF: when one event-loop pass sees both, [recv] closes the
   old fd and the accept that follows reuses its number.  The runtime
   used to unregister the closed fd only at the end of the pass, so the
   accept found the stale interest, never registered the new socket, and
   the pass then removed it: the restarted peer's frames (its writes and
   its Done) sat unread until --max-ticks.  The test plays peer 1 by
   hand and freezes node 0 with SIGSTOP so that the old connection's EOF
   and the new connection are queued for the same epoll wait; node 0
   must read the new Hello + Done and stop by agreement. *)
let same_pass_redial_test () =
  if not (Crdt_net.Evloop_epoll.available ()) then Alcotest.skip ()
  else begin
    let exe = crdtsync () in
    let dir = temp_dir () in
    Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
    let sock i = Filename.concat dir (Printf.sprintf "n%d.sock" i) in
    let listener = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Fun.protect ~finally:(fun () -> Unix.close listener) @@ fun () ->
    Unix.bind listener (Unix.ADDR_UNIX (sock 1));
    Unix.listen listener 4;
    let argv =
      [|
        exe; "serve"; "--id"; "0"; "--listen"; "unix:" ^ sock 0;
        "--peer"; "1=unix:" ^ sock 1; "--crdt"; "gset"; "--ops"; "0";
        "--tick-ms"; "10"; "--max-ticks"; "500"; "--evloop"; "epoll";
      |]
    in
    let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
    let pid = Unix.create_process exe argv Unix.stdin devnull Unix.stderr in
    Unix.close devnull;
    (* Reaped by [wait_all] on success; never leave it stopped or
       running when an assertion fails first. *)
    Fun.protect ~finally:(fun () ->
        try
          Unix.kill pid Sys.sigkill;
          ignore (Unix.waitpid [] pid)
        with Unix.Unix_error _ -> ())
    @@ fun () ->
    (* Node 0 listens before it dials, so once its dial is accepted its
       listener is up. *)
    let from_node, _ = Unix.accept listener in
    let dial_as_peer_1 frames =
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX (sock 0));
      let conn = Crdt_net.Conn.create fd in
      List.iter
        (fun kind ->
          match
            Crdt_net.Conn.send conn ~kind
              (Crdt_wire.Codec.encode_to_string Crdt_wire.Codec.varint 1)
          with
          | Ok () -> ()
          | Error e -> Alcotest.failf "send to node 0: %s" e)
        frames;
      conn
    in
    let kind_hello = 0 and kind_done = 2 in
    let old_conn = dial_as_peer_1 [ kind_hello ] in
    (* Let node 0 accept the first connection and read its Hello. *)
    Unix.sleepf 0.3;
    Unix.kill pid Sys.sigstop;
    (match Unix.waitpid [ Unix.WUNTRACED ] pid with
    | _, Unix.WSTOPPED _ -> ()
    | _, st -> Alcotest.failf "node 0 did not stop: %s" (status_to_string st));
    Crdt_net.Conn.close old_conn;
    let new_conn = dial_as_peer_1 [ kind_hello; kind_done ] in
    Unix.kill pid Sys.sigcont;
    Fun.protect
      ~finally:(fun () ->
        Crdt_net.Conn.close new_conn;
        Unix.close from_node)
      (fun () -> wait_all ~timeout_s:30. [ pid ])
  end

let gset_test () =
  let n = 4 and ops = 10 in
  let encodings, _ = run_cluster ~crdt:"gset" ~n ~ops () in
  Alcotest.(check bool)
    "all replicas encode byte-identically" true (all_identical encodings);
  match Codec.decode_string Gset.Of_int.codec (List.hd encodings) with
  | Error e -> Alcotest.failf "state decode: %s" (Codec.error_to_string e)
  | Ok s ->
      (* Per-tick elements are disjoint across replicas (id*1e6 + tick),
         so the converged set has exactly n*ops elements. *)
      Alcotest.(check int) "cardinal = replicas * ops" (n * ops)
        (Gset.Of_int.weight s)

let gmap_test () =
  let n = 3 and ops = 10 in
  let encodings, _ = run_cluster ~crdt:"gmap" ~n ~ops () in
  Alcotest.(check bool)
    "all replicas encode byte-identically" true (all_identical encodings);
  match Codec.decode_string Gmap.Versioned.codec (List.hd encodings) with
  | Error e -> Alcotest.failf "state decode: %s" (Codec.error_to_string e)
  | Ok m ->
      (* Every replica bumps key (tick mod 50) once, so keys 0..ops-1
         are populated and the joined version on each is 1. *)
      Alcotest.(check int) "one live key per op tick" ops
        (Gmap.Versioned.weight m)

(* Protocols whose chatter never stops on its own: Scuttlebutt gossips
   digests and state-based re-ships the full state every tick.  Before
   the dirty-based quiescence handshake a serve cluster running them
   would spin until --max-ticks; now it terminates only because a
   converged replica's deliveries leave its dirty bit clear (the
   PROTOCOL.handle identity law).  [wait_all] fails any replica that
   exits non-zero, and serve exits 0 only on [Agreement] — not on the
   --max-ticks or wall-clock failsafes. *)
let chatty_test ~protocol () =
  let n = 3 and ops = 8 in
  let encodings, _ = run_cluster ~protocol ~crdt:"gset" ~n ~ops () in
  Alcotest.(check bool)
    "all replicas encode byte-identically" true (all_identical encodings);
  match Codec.decode_string Gset.Of_int.codec (List.hd encodings) with
  | Error e -> Alcotest.failf "state decode: %s" (Codec.error_to_string e)
  | Ok s ->
      Alcotest.(check int) "cardinal = replicas * ops" (n * ops)
        (Gset.Of_int.weight s)

(* The simulator's prediction for the serve workload: same registry
   workload, same protocol, full mesh, exact byte accounting. *)
let sim_wire_bytes ~crdt ~protocol ~n ~ops =
  let module S = (val Registry.find_crdt crdt) in
  let module P =
    (val Registry.instantiate
           (Registry.find_protocol protocol)
           (module S.C : Crdt_proto.Protocol_intf.CRDT
             with type t = S.C.t
              and type op = S.C.op))
  in
  let module R = Crdt_sim.Runner.Make (P) in
  let res =
    R.run ~bytes:Crdt_sim.Metrics.Exact ~equal:S.C.equal
      ~topology:(Crdt_sim.Topology.full_mesh n)
      ~rounds:ops
      ~ops:(fun ~round ~node state -> S.serve_ops ~id:node ~tick:round state)
      ()
  in
  Alcotest.(check bool) "simulator converged" true res.R.converged;
  (R.full_summary res).Crdt_sim.Metrics.total_wire_bytes

(* The headline engine claim: a --lockstep socket cluster and the
   in-process simulator running the same seeded workload account the
   same wire traffic, to the byte.  Any divergence in what the shared
   driver ships or how the trace layer counts it fails this test.
   Running it both batched (the default) and with --no-batch pins the
   coalescing invariant: batching changes write(2) counts, never wire
   bytes, so both modes must land on the simulator's exact total. *)
let cross_check ?(protocol = "delta-bp+rr") ?no_batch ~crdt ~n ~ops () =
  let encodings, socket_bytes =
    run_cluster ~protocol ~lockstep:true ~metrics:true ?no_batch ~crdt ~n ~ops
      ()
  in
  Alcotest.(check bool)
    "all replicas encode byte-identically" true (all_identical encodings);
  Alcotest.(check bool) "sockets moved bytes" true (socket_bytes > 0);
  let sim_bytes = sim_wire_bytes ~crdt ~protocol ~n ~ops in
  Alcotest.(check int) "simulator and sockets agree on total wire bytes"
    sim_bytes socket_bytes

(* The parallel-engine contract over real sockets: a lockstep cluster at
   any --domains width (codec fan-out forced on with --fanout-min 1)
   must land on byte-identical states and the exact wire-byte total of
   the sequential run — the fan-out may only move encode/decode onto the
   pool, never change what is shipped or when. *)
let serve_domains_equality ?(protocol = "delta-bp+rr") ~crdt ~n ~ops () =
  let run domains =
    run_cluster ~protocol ~lockstep:true ~metrics:true ~domains ~fanout_min:1
      ~crdt ~n ~ops ()
  in
  let base_enc, base_bytes = run 1 in
  Alcotest.(check bool)
    "domains=1 replicas byte-identical" true (all_identical base_enc);
  Alcotest.(check bool) "sockets moved bytes" true (base_bytes > 0);
  List.iter
    (fun domains ->
      let enc, bytes = run domains in
      Alcotest.(check bool)
        (Printf.sprintf "domains=%d replicas byte-identical" domains)
        true
        (all_identical enc);
      Alcotest.(check string)
        (Printf.sprintf "domains=%d state equals domains=1" domains)
        (List.hd base_enc) (List.hd enc);
      Alcotest.(check int)
        (Printf.sprintf "domains=%d wire bytes equal domains=1" domains)
        base_bytes bytes)
    [ 2; 4 ]

(* Same contract across event-loop backends: epoll and select drive the
   same runtime, so a lockstep cluster must produce identical states and
   wire bytes under either.  Skipped where epoll is unavailable. *)
let evloop_equality () =
  if not (Crdt_net.Evloop_epoll.available ()) then
    Alcotest.skip ()
  else begin
    let run evloop =
      run_cluster ~lockstep:true ~metrics:true ~evloop ~crdt:"gset" ~n:3
        ~ops:8 ()
    in
    let sel_enc, sel_bytes = run "select" in
    let ep_enc, ep_bytes = run "epoll" in
    Alcotest.(check bool)
      "select replicas byte-identical" true (all_identical sel_enc);
    Alcotest.(check bool)
      "epoll replicas byte-identical" true (all_identical ep_enc);
    Alcotest.(check string) "epoll state equals select" (List.hd sel_enc)
      (List.hd ep_enc);
    Alcotest.(check int) "epoll wire bytes equal select" sel_bytes ep_bytes
  end

let () =
  Alcotest.run "net_convergence"
    [
      ( "serve",
        [
          Alcotest.test_case "4 GSet replicas converge over sockets" `Quick
            gset_test;
          Alcotest.test_case "3 GMap replicas converge over sockets" `Quick
            gmap_test;
          Alcotest.test_case "3 Scuttlebutt replicas converge over sockets"
            `Quick
            (chatty_test ~protocol:"scuttlebutt");
          Alcotest.test_case "4 GSet replicas converge with --no-batch" `Quick
            (fun () ->
              let encodings, _ =
                run_cluster ~no_batch:true ~crdt:"gset" ~n:4 ~ops:10 ()
              in
              Alcotest.(check bool)
                "all replicas encode byte-identically" true
                (all_identical encodings));
          Alcotest.test_case "3 state-based GSet replicas agree and stop"
            `Quick
            (chatty_test ~protocol:"state-based");
        ] );
      ( "sim-vs-socket wire bytes",
        [
          Alcotest.test_case "GSet lockstep cluster matches the simulator"
            `Quick
            (cross_check ~crdt:"gset" ~n:3 ~ops:8);
          Alcotest.test_case "GMap lockstep cluster matches the simulator"
            `Quick
            (cross_check ~crdt:"gmap" ~n:3 ~ops:8);
          Alcotest.test_case
            "GSet lockstep --no-batch matches the simulator too" `Quick
            (cross_check ~no_batch:true ~crdt:"gset" ~n:3 ~ops:8);
          (* Conflict-sync broadcasts a digest every tick, so this cell
             additionally pins that the lockstep barrier and the
             simulator's quiesce loop stop at the same round boundary —
             one extra round on either side would show up as n*(n-1)
             stray digest frames. *)
          Alcotest.test_case
            "GSet conflict-sync lockstep matches the simulator" `Quick
            (cross_check ~protocol:"conflict-sync" ~crdt:"gset" ~n:3 ~ops:8);
        ] );
      ( "parallel serve",
        [
          Alcotest.test_case
            "GSet delta-bp+rr lockstep: domains 1/2/4 byte-identical" `Quick
            (serve_domains_equality ~crdt:"gset" ~n:3 ~ops:8);
          Alcotest.test_case
            "GSet conflict-sync lockstep: domains 1/2/4 byte-identical"
            `Quick
            (serve_domains_equality ~protocol:"conflict-sync" ~crdt:"gset"
               ~n:3 ~ops:8);
          Alcotest.test_case "epoll and select move identical bytes" `Quick
            evloop_equality;
        ] );
      ( "kill -9 + restart",
        [
          Alcotest.test_case
            "delta-bp+rr survives SIGKILL + restart from --data-dir" `Quick
            (kill_restart_test ~protocol:"delta-bp+rr");
          Alcotest.test_case
            "conflict-sync survives SIGKILL + restart from --data-dir" `Quick
            (kill_restart_test ~protocol:"conflict-sync");
          Alcotest.test_case
            "a redial sharing a pass with the old EOF is still read" `Quick
            same_pass_redial_test;
        ] );
    ]
