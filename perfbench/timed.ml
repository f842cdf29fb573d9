(* Interposers for traced runs: each wraps one layer's public functions
   in ledger spans and is otherwise the identity, so a traced run
   executes exactly the code of an untraced one plus the timers. *)

module L = Ledger

(* core: the lattice handed to [Registry.instantiate]. *)
module Crdt (C : Crdt_proto.Protocol_intf.CRDT) :
  Crdt_proto.Protocol_intf.CRDT with type t = C.t and type op = C.op = struct
  include C

  let join a b = L.time2 L.core_join C.join a b
  let delta a b = L.time2 L.core_delta C.delta a b
  let leq a b = L.time2 L.core_leq C.leq a b
  let equal a b = L.time2 L.core_equal C.equal a b
  let mutate op i x = L.time3 L.core_mutate C.mutate op i x
  let delta_mutate op i x = L.time3 L.core_mutate C.delta_mutate op i x
  let decompose x = L.time1 L.core_decompose C.decompose x

  let fold_decompose f x acc =
    let t0 = L.enter () in
    match C.fold_decompose f x acc with
    | r ->
        L.leave L.core_decompose t0;
        r
    | exception e ->
        L.leave L.core_decompose t0;
        raise e
end

(* proto and wire: the protocol handed to [Runtime.Make]/[Runner.Make]. *)
module Proto (P : Crdt_proto.Protocol_intf.PROTOCOL) :
  Crdt_proto.Protocol_intf.PROTOCOL
    with type crdt = P.crdt
     and type op = P.op
     and type node = P.node
     and type message = P.message = struct
  include P

  let local_update n op = L.time2 L.proto_local_update P.local_update n op

  let tick n =
    let ((_, out) as r) = L.time1 L.proto_tick P.tick n in
    L.proto_msgs := !L.proto_msgs + List.length out;
    r

  let handle n ~src m =
    let t0 = L.enter () in
    match P.handle n ~src m with
    | r ->
        L.leave L.proto_handle t0;
        r
    | exception e ->
        L.leave L.proto_handle t0;
        raise e

  let message_codec =
    let inner = P.message_codec in
    {
      Crdt_wire.Codec.write =
        (fun buf m ->
          let before = Buffer.length buf in
          L.time2 L.wire_encode inner.Crdt_wire.Codec.write buf m;
          L.wire_bytes := !L.wire_bytes + Buffer.length buf - before);
      read = (fun r -> L.time1 L.wire_decode inner.Crdt_wire.Codec.read r);
    }

  let message_wire_bytes m = L.time1 L.wire_size P.message_wire_bytes m
end
