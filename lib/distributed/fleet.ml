(* Cross-machine capability delegation with at-least-once revocation.

   One [Fleet.t] per machine wraps that machine's monitor and gives it a
   place in a fleet of mutually-attested peers: a capability delegated
   to a peer is materialized locally as a share to a [Domain.Remote]
   proxy (so the remote holder shows up in refcounts, holders lists and
   attestation bodies exactly like a local one), and the delegation /
   revocation messages cross the untrusted {!Network} under per-channel
   sequence numbers, HMACs, a persistent outbox and cumulative acks.

   Delivery contract:
   - messages are retried (capped exponential backoff over logical
     {!tick}s) until the peer's cumulative ack covers them — at-least-
     once, surviving crash-restart because the outbox is journaled in
     the ["fleet"] blob of the same durable store as the monitor's WAL;
   - the receiver applies a message only when its sequence number is
     exactly [applied + 1]; anything at or below [applied] is a
     duplicate (re-acked, not re-applied) and anything above is an
     out-of-order arrival (dropped — the sender's retransmit restores
     order). Dedup is by (origin, seq), so post-recovery re-sends and
     adversarial duplicates are absorbed idempotently.

   Journal-then-ack: the receiver fsyncs its journal record before the
   ack leaves, so an acked message can never be lost to a crash. The
   sender fsyncs its journal record before the first transmission, so a
   message a peer might have seen is always re-sendable after a crash.

   Remote-held caps are frozen in the local captree for the whole life
   of the delegation: the proxy's cap (and therefore any local attempt
   to revoke an ancestor of it) is refused with [Frozen] — local code
   cannot silently destroy the only record that a remote machine holds
   the resource. Cross-machine revocation goes through {!revoke}, which
   freezes the revoked cap, journals the pending revocation, sends
   Revoke to every affected peer, and only executes the local cascading
   revoke once every peer's cumulative ack covers its Revoke — converging
   after partitions heal, never leaking. *)

type peer_state =
  | Healthy
  | Degraded of { since : int; attempts : int }

type error =
  | Monitor_error of Tyche.Monitor.error
  | Unknown_peer of Network.endpoint
  | No_session of Network.endpoint
  | Revocation_pending of Cap.Captree.cap_id
  | Not_memory of Cap.Captree.cap_id

let error_to_string = function
  | Monitor_error e -> Tyche.Monitor.error_to_string e
  | Unknown_peer p -> "unknown peer: " ^ p
  | No_session p -> "no session key for peer " ^ p ^ " (connect first)"
  | Revocation_pending c ->
    Printf.sprintf "capability %d is inside a pending cross-machine revocation" c
  | Not_memory c -> Printf.sprintf "capability %d is not a memory capability" c

(* --- fault points ---------------------------------------------------- *)

(* [fleet.deliver] drops an inbound fleet datagram (lossy last hop),
   [fleet.ack] suppresses an outbound ack (the classic ack-loss window:
   the receiver applied and journaled, the sender must retry into the
   dedup path), [fleet.partition] makes a retransmission round fall into
   the void without resetting backoff. *)
let deliver_point = Fault.register "fleet.deliver"
let ack_point = Fault.register "fleet.ack"
let partition_point = Fault.register "fleet.partition"

(* --- metrics --------------------------------------------------------- *)

let sent_c = Obs.Metrics.counter "fleet.sent"
let retries_c = Obs.Metrics.counter "fleet.retries"
let delivered_c = Obs.Metrics.counter "fleet.delivered"
let dup_rx_c = Obs.Metrics.counter "fleet.dup_rx"
let gap_rx_c = Obs.Metrics.counter "fleet.gap_rx"
let acks_rx_c = Obs.Metrics.counter "fleet.acks_rx"
let drops_c = Obs.Metrics.counter "fleet.drops"
let ack_drops_c = Obs.Metrics.counter "fleet.ack_drops"
let reject_c = Obs.Metrics.counter "fleet.rejected"
let aborted_c = Obs.Metrics.counter "fleet.revoke_aborted"
let backlog_g = Obs.Metrics.gauge "fleet.backlog"
let degraded_g = Obs.Metrics.gauge "fleet.degraded"
let ack_lag_h = Obs.Metrics.histogram "fleet.ack_lag"

(* --- wire messages --------------------------------------------------- *)

module Wire = struct
  type msg =
    | Delegate of { del_id : int; base : int; len : int; rights : int }
    | Revoke of { del_id : int }
    | Ack of { upto : int }
    | Data of { chan : string; payload : string }
        (* Opaque application frame, multiplexed by channel name. Same
           seq space, outbox, journal and ack discipline as Delegate /
           Revoke — at-least-once with idempotent replay — so a higher
           protocol (live migration) inherits the delivery contract
           instead of rebuilding it. *)

  let encode_body ~origin ~seq msg =
    let buf = Buffer.create 64 in
    Persist.Wire.str buf origin;
    Persist.Wire.i64 buf seq;
    (match msg with
    | Delegate { del_id; base; len; rights } ->
      Persist.Wire.u8 buf 1;
      Persist.Wire.i64 buf del_id;
      Persist.Wire.i64 buf base;
      Persist.Wire.i64 buf len;
      Persist.Wire.u8 buf rights
    | Revoke { del_id } ->
      Persist.Wire.u8 buf 2;
      Persist.Wire.i64 buf del_id
    | Ack { upto } ->
      Persist.Wire.u8 buf 3;
      Persist.Wire.i64 buf upto
    | Data { chan; payload } ->
      Persist.Wire.u8 buf 4;
      Persist.Wire.str buf chan;
      Persist.Wire.str buf payload);
    Buffer.contents buf

  let decode_body body =
    match
      let r = Persist.Wire.reader body in
      let origin = Persist.Wire.get_str r in
      let seq = Persist.Wire.get_i64 r in
      let msg =
        match Persist.Wire.get_u8 r with
        | 1 ->
          let del_id = Persist.Wire.get_i64 r in
          let base = Persist.Wire.get_i64 r in
          let len = Persist.Wire.get_i64 r in
          (* Rights travel as {!Cap.Rights.to_bits}; unknown bits are
             corrupt, not ignored. *)
          let rights = Persist.Wire.get_u8 r in
          if Cap.Rights.of_bits rights = None then
            raise (Persist.Wire.Corrupt "bad rights bits");
          Delegate { del_id; base; len; rights }
        | 2 -> Revoke { del_id = Persist.Wire.get_i64 r }
        | 3 -> Ack { upto = Persist.Wire.get_i64 r }
        | 4 ->
          let chan = Persist.Wire.get_str r in
          let payload = Persist.Wire.get_str r in
          Data { chan; payload }
        | t -> raise (Persist.Wire.Corrupt (Printf.sprintf "unknown fleet tag %d" t))
      in
      Persist.Wire.expect_end r;
      (origin, seq, msg)
    with
    | v -> Ok v
    | exception Persist.Wire.Corrupt e -> Error e

  let mac_len = 32

  let seal ~key body = body ^ Crypto.Sha256.to_raw (Crypto.Hmac.mac ~key body)

  (* Splits a datagram without authenticating it — the body names the
     origin, and only the origin's channel knows which key applies. *)
  let split_datagram raw =
    let n = String.length raw in
    if n < mac_len then Error "short fleet datagram"
    else Ok (String.sub raw 0 (n - mac_len), String.sub raw (n - mac_len) mac_len)

  let verify ~key ~body ~mac =
    String.length mac = mac_len
    && Crypto.Hmac.verify ~key body (Crypto.Sha256.of_raw mac)
end

(* --- durable journal ------------------------------------------------- *)

let fleet_blob = "fleet"

(* The journal is the fleet's redo log, riding in its own blob of the
   monitor's store (mem-store appends to it tear and crash through the
   [snapshot.write] fault point, file stores through real fsyncs).
   Records, in the order constraints matter:
   - a record is fsynced before any message it makes re-sendable leaves
     the machine (sender side), and before the ack for the message it
     records leaves (receiver side);
   - [J_acked] precedes [J_revoked] for the same ack, so the WAL's
     longest-valid-prefix read can never see a confirmed revocation
     whose ack floor was lost. *)
type jrec =
  | J_peer of { peer : string; proxy : Tyche.Domain.id }
  | J_delegate of
      { del_id : int; peer : string; proxy_cap : int; base : int; len : int;
        rights : int; seq : int }
  | J_import of
      { origin : string; del_id : int; base : int; len : int; rights : int;
        applied : int }
  | J_unimport of { origin : string; del_id : int; applied : int }
  | J_pending of { cap : int; caller : int; dels : (string * int * int) list }
  | J_revoked of { del_id : int }
  | J_acked of { peer : string; upto : int }
  | J_done of { cap : int }
  | J_chan of { peer : string; next_ : int; acked : int; applied : int }
      (* Snapshot of a channel's counters, written only by compaction:
         without it, a compacted journal whose completed delegations and
         retired imports were pruned would lose [c_next] (seq reuse the
         peer absorbs as duplicates) and [c_applied] (re-imported
         revoked delegations). *)
  | J_send of { peer : string; seq : int; chan : string; payload : string }
      (* An outbound data frame, durable before first transmission so a
         recovering sender can rebuild its retransmission window. Pruned
         from snapshots once the peer's cumulative ack covers [seq]. *)
  | J_recv of { origin : string; applied : int }
      (* Applied-floor advance for an inbound data frame. The payload is
         not recorded here — the channel's handler journals its own
         durable effect before this record is fsynced and the ack
         leaves, and absorbs at-least-once redelivery idempotently. *)

let encode_jrec r =
  let buf = Buffer.create 48 in
  (match r with
  | J_peer { peer; proxy } ->
    Persist.Wire.u8 buf 1;
    Persist.Wire.str buf peer;
    Persist.Wire.i64 buf proxy
  | J_delegate { del_id; peer; proxy_cap; base; len; rights; seq } ->
    Persist.Wire.u8 buf 2;
    Persist.Wire.i64 buf del_id;
    Persist.Wire.str buf peer;
    Persist.Wire.i64 buf proxy_cap;
    Persist.Wire.i64 buf base;
    Persist.Wire.i64 buf len;
    Persist.Wire.u8 buf rights;
    Persist.Wire.i64 buf seq
  | J_import { origin; del_id; base; len; rights; applied } ->
    Persist.Wire.u8 buf 3;
    Persist.Wire.str buf origin;
    Persist.Wire.i64 buf del_id;
    Persist.Wire.i64 buf base;
    Persist.Wire.i64 buf len;
    Persist.Wire.u8 buf rights;
    Persist.Wire.i64 buf applied
  | J_unimport { origin; del_id; applied } ->
    Persist.Wire.u8 buf 4;
    Persist.Wire.str buf origin;
    Persist.Wire.i64 buf del_id;
    Persist.Wire.i64 buf applied
  | J_pending { cap; caller; dels } ->
    Persist.Wire.u8 buf 5;
    Persist.Wire.i64 buf cap;
    Persist.Wire.i64 buf caller;
    Persist.Wire.list buf
      (fun b (peer, del_id, seq) ->
        Persist.Wire.str b peer;
        Persist.Wire.i64 b del_id;
        Persist.Wire.i64 b seq)
      dels
  | J_revoked { del_id } ->
    Persist.Wire.u8 buf 6;
    Persist.Wire.i64 buf del_id
  | J_acked { peer; upto } ->
    Persist.Wire.u8 buf 7;
    Persist.Wire.str buf peer;
    Persist.Wire.i64 buf upto
  | J_done { cap } ->
    Persist.Wire.u8 buf 8;
    Persist.Wire.i64 buf cap
  | J_chan { peer; next_; acked; applied } ->
    Persist.Wire.u8 buf 9;
    Persist.Wire.str buf peer;
    Persist.Wire.i64 buf next_;
    Persist.Wire.i64 buf acked;
    Persist.Wire.i64 buf applied
  | J_send { peer; seq; chan; payload } ->
    Persist.Wire.u8 buf 10;
    Persist.Wire.str buf peer;
    Persist.Wire.i64 buf seq;
    Persist.Wire.str buf chan;
    Persist.Wire.str buf payload
  | J_recv { origin; applied } ->
    Persist.Wire.u8 buf 11;
    Persist.Wire.str buf origin;
    Persist.Wire.i64 buf applied);
  Buffer.contents buf

let decode_jrec payload =
  let r = Persist.Wire.reader payload in
  let rec_ =
    match Persist.Wire.get_u8 r with
    | 1 ->
      let peer = Persist.Wire.get_str r in
      let proxy = Persist.Wire.get_i64 r in
      J_peer { peer; proxy }
    | 2 ->
      let del_id = Persist.Wire.get_i64 r in
      let peer = Persist.Wire.get_str r in
      let proxy_cap = Persist.Wire.get_i64 r in
      let base = Persist.Wire.get_i64 r in
      let len = Persist.Wire.get_i64 r in
      let rights = Persist.Wire.get_u8 r in
      let seq = Persist.Wire.get_i64 r in
      J_delegate { del_id; peer; proxy_cap; base; len; rights; seq }
    | 3 ->
      let origin = Persist.Wire.get_str r in
      let del_id = Persist.Wire.get_i64 r in
      let base = Persist.Wire.get_i64 r in
      let len = Persist.Wire.get_i64 r in
      let rights = Persist.Wire.get_u8 r in
      let applied = Persist.Wire.get_i64 r in
      J_import { origin; del_id; base; len; rights; applied }
    | 4 ->
      let origin = Persist.Wire.get_str r in
      let del_id = Persist.Wire.get_i64 r in
      let applied = Persist.Wire.get_i64 r in
      J_unimport { origin; del_id; applied }
    | 5 ->
      let cap = Persist.Wire.get_i64 r in
      let caller = Persist.Wire.get_i64 r in
      let dels =
        Persist.Wire.get_list r (fun b ->
            let peer = Persist.Wire.get_str b in
            let del_id = Persist.Wire.get_i64 b in
            let seq = Persist.Wire.get_i64 b in
            (peer, del_id, seq))
      in
      J_pending { cap; caller; dels }
    | 6 -> J_revoked { del_id = Persist.Wire.get_i64 r }
    | 7 ->
      let peer = Persist.Wire.get_str r in
      let upto = Persist.Wire.get_i64 r in
      J_acked { peer; upto }
    | 8 -> J_done { cap = Persist.Wire.get_i64 r }
    | 9 ->
      let peer = Persist.Wire.get_str r in
      let next_ = Persist.Wire.get_i64 r in
      let acked = Persist.Wire.get_i64 r in
      let applied = Persist.Wire.get_i64 r in
      J_chan { peer; next_; acked; applied }
    | 10 ->
      let peer = Persist.Wire.get_str r in
      let seq = Persist.Wire.get_i64 r in
      let chan = Persist.Wire.get_str r in
      let payload = Persist.Wire.get_str r in
      J_send { peer; seq; chan; payload }
    | 11 ->
      let origin = Persist.Wire.get_str r in
      let applied = Persist.Wire.get_i64 r in
      J_recv { origin; applied }
    | t -> raise (Persist.Wire.Corrupt (Printf.sprintf "unknown fleet journal tag %d" t))
  in
  Persist.Wire.expect_end r;
  rec_

(* --- state ----------------------------------------------------------- *)

type del_state = Active | Revoking | Revoked

type delegation = {
  del_id : int;
  del_peer : Network.endpoint;
  proxy_cap : Cap.Captree.cap_id;
  del_base : int;
  del_len : int;
  del_rights : int; (* the rights byte shipped to the importer *)
  del_seq : int; (* channel seq of the Delegate message *)
  mutable del_state : del_state;
  mutable revoke_seq : int; (* channel seq of the Revoke message; 0 = none *)
}

type import = {
  imp_origin : Network.endpoint;
  imp_del_id : int;
  imp_base : int;
  imp_len : int;
  imp_rights : int;
}

type pending_revoke = {
  pr_cap : Cap.Captree.cap_id;
  pr_caller : Tyche.Domain.id;
  pr_dels : (Network.endpoint * int * int) list; (* (peer, del_id, revoke seq) *)
  mutable pr_waiting : (Network.endpoint * int) list; (* (peer, del_id) unacked *)
}

type outbox_entry = { ob_seq : int; ob_body : string; mutable ob_sent : int }

type channel = {
  ch_peer : Network.endpoint;
  mutable ch_key : string option; (* session key; volatile by design *)
  mutable c_next : int; (* next data seq to assign *)
  mutable c_acked : int; (* peer's cumulative ack floor *)
  mutable c_applied : int; (* highest inbound seq applied *)
  outbox : outbox_entry Queue.t; (* ascending seq; acks pop a prefix *)
  mutable attempts : int; (* transmit rounds since last ack progress *)
  mutable backoff : int;
  mutable due : int; (* tick at which the next retransmit round runs *)
  mutable ch_state : peer_state;
  (* Hoisted per-link metric handles (names are stable per peer). *)
  l_retries : Obs.Metrics.counter;
  l_backlog : Obs.Metrics.gauge;
  l_timeouts : Obs.Metrics.counter;
}

(* Compaction policy, tunable per endpoint (tests and the migration
   journal exercise compaction without thousands of warm-up records). *)
type config = {
  compact_min : int; (* never compact below this many journal records *)
  compact_ratio : int; (* rewrite once dead records outnumber live state this many to one *)
}

let default_config = { compact_min = 128; compact_ratio = 4 }

type t = {
  monitor : Tyche.Monitor.t;
  name : Network.endpoint;
  net : Network.t;
  store : Persist.Store.t option;
  config : config;
  mutable jseq : int;
  mutable jrecs : int; (* records currently in the fleet blob *)
  channels : (Network.endpoint, channel) Hashtbl.t;
  dels : (int, delegation) Hashtbl.t;
  imports : (Network.endpoint * int, import) Hashtbl.t;
  proxies : (Network.endpoint, Tyche.Domain.id) Hashtbl.t;
  pending : (Cap.Captree.cap_id, pending_revoke) Hashtbl.t;
  (* Unacked outbound data frames, (peer, seq) -> (chan, payload):
     mirrors the J_send records still live in the journal. *)
  sends : (Network.endpoint * int, string * string) Hashtbl.t;
  (* Inbound data dispatch by channel name; volatile like session keys —
     re-register after recovery, before polling. *)
  handlers : (string, Network.endpoint -> string -> unit) Hashtbl.t;
  mutable next_del : int;
  mutable clock : int;
}

let base_backoff = 1
let max_backoff = 8
let degrade_after = 3

let tree t = Tyche.Monitor.tree t.monitor

let journal t r =
  match t.store with
  | None -> ()
  | Some s ->
    t.jseq <- t.jseq + 1;
    t.jrecs <- t.jrecs + 1;
    Persist.Wal.append s ~blob:fleet_blob ~seq:t.jseq (encode_jrec r)

let jsync t =
  match t.store with
  | None -> ()
  | Some s ->
    (* The fleet journal must never get ahead of the monitor state it
       references (proxy domains, shares): flush the monitor's group
       commit first, then make the fleet record durable. *)
    Tyche.Monitor.flush t.monitor;
    Persist.Store.fsync s fleet_blob

let total_backlog t =
  Hashtbl.fold (fun _ ch acc -> acc + Queue.length ch.outbox) t.channels 0

let update_backlog t ch =
  Obs.Metrics.set_gauge ch.l_backlog (Queue.length ch.outbox);
  Obs.Metrics.set_gauge backlog_g (total_backlog t)

let degraded_count t =
  Hashtbl.fold
    (fun _ ch acc -> match ch.ch_state with Degraded _ -> acc + 1 | Healthy -> acc)
    t.channels 0

let channel_of t peer =
  match Hashtbl.find_opt t.channels peer with
  | Some ch -> ch
  | None ->
    let ch =
      { ch_peer = peer;
        ch_key = None;
        c_next = 1;
        c_acked = 0;
        c_applied = 0;
        outbox = Queue.create ();
        attempts = 0;
        backoff = base_backoff;
        due = 0;
        ch_state = Healthy;
        l_retries = Obs.Metrics.counter ("fleet.link." ^ peer ^ ".retries");
        l_backlog = Obs.Metrics.gauge ("fleet.link." ^ peer ^ ".backlog");
        l_timeouts = Obs.Metrics.counter ("fleet.link." ^ peer ^ ".timeouts") }
    in
    (* The registry is process-global and the names are stable per peer,
       so a channel recreated by crash-restart (or the next chaos
       episode) would otherwise keep accumulating into its predecessor's
       handles — double-counting retries and reporting a stale backlog.
       A new channel starts its incarnation at zero. *)
    Obs.Metrics.zero_counter ch.l_retries;
    Obs.Metrics.zero_gauge ch.l_backlog;
    Obs.Metrics.zero_counter ch.l_timeouts;
    Hashtbl.add t.channels peer ch;
    ch

let transmit t ch body =
  match ch.ch_key with
  | None -> ()
  | Some key ->
    Obs.Metrics.incr sent_c;
    Network.send t.net ~from_:t.name ~to_:ch.ch_peer (Wire.seal ~key body)

let send_ack t ch =
  if Fault.fires ack_point then Obs.Metrics.incr ack_drops_c
  else transmit t ch (Wire.encode_body ~origin:t.name ~seq:0 (Wire.Ack { upto = ch.c_applied }))

let enqueue t ch body =
  let seq = ch.c_next in
  ch.c_next <- seq + 1;
  Queue.add { ob_seq = seq; ob_body = body; ob_sent = t.clock } ch.outbox;
  update_backlog t ch;
  seq

(* --- the delegation lifecycle --------------------------------------- *)

let ( let* ) = Result.bind

let proxy t ~peer = Hashtbl.find_opt t.proxies peer

let connect t ~peer ~key =
  match Hashtbl.find_opt t.proxies peer with
  | Some proxy ->
    (* Re-provisioning a session key after recovery or re-establishment:
       durable state is untouched. *)
    let ch = channel_of t peer in
    ch.ch_key <- Some key;
    Ok proxy
  | None -> (
    match
      Tyche.Monitor.create_domain t.monitor ~caller:Tyche.Domain.initial
        ~name:("remote:" ^ peer) ~kind:Tyche.Domain.Remote
    with
    | Error e -> Error (Monitor_error e)
    | Ok proxy ->
      journal t (J_peer { peer; proxy });
      jsync t;
      Hashtbl.replace t.proxies peer proxy;
      let ch = channel_of t peer in
      ch.ch_key <- Some key;
      Ok proxy)

(* Refuse operations that would overlap an in-flight revocation: the
   frozen cap already blocks captree mutations, but fleet-level calls
   must also not stack a second pending revoke above or below one. *)
let overlapping_pending t cap =
  let tr = tree t in
  Hashtbl.fold
    (fun pcap _ acc ->
      match acc with
      | Some _ -> acc
      | None ->
        if
          pcap = cap
          || Cap.Captree.is_ancestor tr ~ancestor:cap pcap
          || Cap.Captree.is_ancestor tr ~ancestor:pcap cap
        then Some pcap
        else None)
    t.pending None

let delegate t ~caller ~cap ~peer ?subrange ~rights () =
  match Hashtbl.find_opt t.channels peer with
  | None -> Error (Unknown_peer peer)
  | Some ch when ch.ch_key = None -> Error (No_session peer)
  | Some ch -> (
    let proxy = Hashtbl.find t.proxies peer in
    match Cap.Captree.resource (tree t) cap with
    | None ->
      Error (Monitor_error (Tyche.Monitor.Cap_error (Cap.Captree.No_such_capability cap)))
    | Some (Cap.Resource.Cpu_core _ | Cap.Resource.Device _) -> Error (Not_memory cap)
    | Some (Cap.Resource.Memory full_range) -> (
      (* The proxy's local cap must be inert in every dimension the
         local tree can express: permissions mirror the delegation (so
         refcounts and Fig. 4 show the remote holder truthfully), but
         the proxy can never re-share or re-grant locally. *)
      let local_rights = { rights with Cap.Rights.can_share = false; can_grant = false } in
      match
        Tyche.Monitor.share t.monitor ~caller ~cap ~to_:proxy ~rights:local_rights
          ~cleanup:Cap.Revocation.Keep ?subrange ()
      with
      | Error e -> Error (Monitor_error e)
      | Ok proxy_cap ->
        let range = Option.value subrange ~default:full_range in
        let base = Hw.Addr.Range.base range and len = Hw.Addr.Range.len range in
        let rights_b = Cap.Rights.to_bits rights in
        let del_id = t.next_del in
        t.next_del <- del_id + 1;
        (* Freeze before anything can observe the share: from here on,
           only {!revoke} (which tells the peer) can undo it. *)
        (match Cap.Captree.freeze (tree t) proxy_cap with Ok () | Error _ -> ());
        let body =
          Wire.encode_body ~origin:t.name ~seq:ch.c_next
            (Wire.Delegate { del_id; base; len; rights = rights_b })
        in
        journal t
          (J_delegate
             { del_id; peer; proxy_cap; base; len; rights = rights_b; seq = ch.c_next });
        jsync t;
        let seq = enqueue t ch body in
        Hashtbl.replace t.dels del_id
          { del_id; del_peer = peer; proxy_cap; del_base = base; del_len = len;
            del_rights = rights_b; del_seq = seq; del_state = Active; revoke_seq = 0 };
        transmit t ch body;
        Ok del_id))

(* Delegations whose proxy cap is [cap] itself or lies anywhere in its
   subtree — the ones a cascading revoke of [cap] must first retire on
   the remote side. *)
let delegations_under t cap =
  let tr = tree t in
  Hashtbl.fold
    (fun _ d acc ->
      match d.del_state with
      | Revoked -> acc
      | Active | Revoking ->
        if d.proxy_cap = cap || Cap.Captree.is_ancestor tr ~ancestor:cap d.proxy_cap then
          d :: acc
        else acc)
    t.dels []
  |> List.sort (fun a b -> Int.compare a.del_id b.del_id)

let execute_pending t (p : pending_revoke) =
  (* Every peer confirmed: nothing remote holds the subtree any more.
     Thaw the bookkeeping freezes and run the ordinary local cascade.
     [No_such_capability] counts as success — a previous life may have
     crashed between the revoke and the journal record. *)
  Cap.Captree.thaw (tree t) p.pr_cap;
  List.iter (fun (_, del_id, _) ->
      match Hashtbl.find_opt t.dels del_id with
      | Some d -> Cap.Captree.thaw (tree t) d.proxy_cap
      | None -> ())
    p.pr_dels;
  let done_ =
    match Tyche.Monitor.revoke t.monitor ~caller:p.pr_caller ~cap:p.pr_cap with
    | Ok () -> true
    | Error (Tyche.Monitor.Cap_error (Cap.Captree.No_such_capability _)) -> true
    | Error (Tyche.Monitor.Denied _) ->
      (* Deterministic refusal: the caller's authority over the cap was
         checked when the revocation was journaled, so ownership moved
         while the acks were in flight. Retrying can never succeed —
         it would wedge the subtree frozen behind a pending record that
         never clears. Abort instead: the peers already dropped their
         imports (their acks are all in), so retire each proxy cap with
         its delegator's authority — exactly like [reconcile] — so the
         local tree stops claiming remote holders that no longer exist,
         then let the pending record complete below. *)
      Obs.Metrics.incr aborted_c;
      let tr = tree t in
      List.iter
        (fun (_, del_id, _) ->
          match Hashtbl.find_opt t.dels del_id with
          | None -> ()
          | Some d ->
            let caller =
              match Cap.Captree.parent tr d.proxy_cap with
              | Some pid ->
                Option.value (Cap.Captree.owner tr pid) ~default:Tyche.Domain.initial
              | None -> Tyche.Domain.initial
            in
            (match Tyche.Monitor.revoke t.monitor ~caller ~cap:d.proxy_cap with
            | Ok () -> ()
            | Error (Tyche.Monitor.Cap_error (Cap.Captree.No_such_capability _)) -> ()
            | Error _ -> Obs.Metrics.incr reject_c))
        p.pr_dels;
      true
    | Error _ ->
      (* Transient (e.g. an injected backend fault rolled the cascade
         back): re-freeze and leave the pending record; the next tick
         retries. *)
      (match Cap.Captree.freeze (tree t) p.pr_cap with Ok () | Error _ -> ());
      List.iter
        (fun (_, del_id, _) ->
          match Hashtbl.find_opt t.dels del_id with
          | Some d -> (
            match Cap.Captree.freeze (tree t) d.proxy_cap with Ok () | Error _ -> ())
          | None -> ())
        p.pr_dels;
      Obs.Metrics.incr reject_c;
      false
  in
  if done_ then begin
    journal t (J_done { cap = p.pr_cap });
    jsync t;
    List.iter (fun (_, del_id, _) -> Hashtbl.remove t.dels del_id) p.pr_dels;
    Hashtbl.remove t.pending p.pr_cap
  end

let revoke t ~caller ~cap =
  match overlapping_pending t cap with
  | Some pcap -> Error (Revocation_pending pcap)
  | None -> (
    match delegations_under t cap with
    | [] -> (
      (* Nothing delegated below: a purely local revocation. *)
      match Tyche.Monitor.revoke t.monitor ~caller ~cap with
      | Ok () -> Ok ()
      | Error e -> Error (Monitor_error e))
    | dels ->
      (* Authorization first, before anything irreversible: peers drop
         their imports the moment the Revoke datagram arrives — long
         before the local cascade (and its own may_revoke check) runs —
         so an unchecked caller could strip remote machines of their
         delegations and leave the subtree frozen behind a pending
         revocation that can only ever fail. *)
      let* () =
        Result.map_error
          (fun e -> Monitor_error e)
          (Tyche.Monitor.may_revoke t.monitor ~caller cap)
      in
      (* Check every affected peer has a channel before mutating. *)
      let chans = List.map (fun d -> (d, channel_of t d.del_peer)) dels in
      (match Cap.Captree.freeze (tree t) cap with Ok () | Error _ -> ());
      let planned =
        List.map
          (fun (d, ch) ->
            let seq = ch.c_next in
            let body =
              Wire.encode_body ~origin:t.name ~seq (Wire.Revoke { del_id = d.del_id })
            in
            let seq = enqueue t ch body in
            d.del_state <- Revoking;
            d.revoke_seq <- seq;
            (d, ch, seq, body))
          chans
      in
      let jdels = List.map (fun (d, _, seq, _) -> (d.del_peer, d.del_id, seq)) planned in
      journal t (J_pending { cap; caller; dels = jdels });
      jsync t;
      let p =
        { pr_cap = cap;
          pr_caller = caller;
          pr_dels = jdels;
          pr_waiting = List.map (fun (peer, id, _) -> (peer, id)) jdels }
      in
      Hashtbl.replace t.pending cap p;
      List.iter (fun (_, ch, _, body) -> transmit t ch body) planned;
      Ok ())

(* --- opaque data plane ----------------------------------------------- *)

(* Higher protocols (live migration) ride the same channel as
   delegations: a data frame is journaled (J_send) and fsynced before
   its first transmission, retried until the peer's cumulative ack
   covers it, and delivered to the receiving side's registered handler
   exactly in sequence order — but at-least-once across crash-restarts,
   so handlers must journal their own effects and absorb redelivery
   idempotently. *)

let send_data t ~peer ~chan payload =
  match Hashtbl.find_opt t.channels peer with
  | None -> Error (Unknown_peer peer)
  | Some ch when ch.ch_key = None -> Error (No_session peer)
  | Some ch ->
    let body =
      Wire.encode_body ~origin:t.name ~seq:ch.c_next (Wire.Data { chan; payload })
    in
    journal t (J_send { peer; seq = ch.c_next; chan; payload });
    jsync t;
    let seq = enqueue t ch body in
    Hashtbl.replace t.sends (peer, seq) (chan, payload);
    transmit t ch body;
    Ok seq

let set_data_handler t ~chan f = Hashtbl.replace t.handlers chan f

(* --- receiving ------------------------------------------------------- *)

let on_ack t ch upto =
  Obs.Metrics.incr acks_rx_c;
  if upto > ch.c_acked then begin
    journal t (J_acked { peer = ch.ch_peer; upto });
    (* A cumulative ack always covers an outbox prefix (ascending seq),
       so draining pops from the front — O(covered), not O(window). *)
    let rec drain () =
      match Queue.peek_opt ch.outbox with
      | Some e when e.ob_seq <= upto ->
        ignore (Queue.pop ch.outbox);
        Hashtbl.remove t.sends (ch.ch_peer, e.ob_seq);
        Obs.Metrics.observe ack_lag_h (t.clock - e.ob_sent);
        drain ()
      | Some _ | None -> ()
    in
    drain ();
    update_backlog t ch;
    ch.c_acked <- upto;
    ch.attempts <- 0;
    ch.backoff <- base_backoff;
    ch.due <- t.clock;
    (match ch.ch_state with
    | Degraded _ ->
      ch.ch_state <- Healthy;
      Obs.Metrics.set_gauge degraded_g (degraded_count t)
    | Healthy -> ());
    (* Revocations this ack confirms. [J_acked] above precedes every
       [J_revoked] below in the journal, preserving the invariant that a
       durable confirmation implies a durable ack floor. *)
    let confirmed =
      Hashtbl.fold
        (fun _ d acc ->
          if d.del_state = Revoking && d.del_peer = ch.ch_peer && d.revoke_seq <= upto
          then d :: acc
          else acc)
        t.dels []
      |> List.sort (fun a b -> Int.compare a.del_id b.del_id)
    in
    List.iter
      (fun d ->
        d.del_state <- Revoked;
        journal t (J_revoked { del_id = d.del_id });
        Hashtbl.iter
          (fun _ p ->
            p.pr_waiting <-
              List.filter (fun (peer, id) -> not (peer = ch.ch_peer && id = d.del_id))
                p.pr_waiting)
          t.pending)
      confirmed;
    if confirmed <> [] then jsync t;
    let ready =
      Hashtbl.fold (fun _ p acc -> if p.pr_waiting = [] then p :: acc else acc) t.pending []
      |> List.sort (fun a b -> Int.compare a.pr_cap b.pr_cap)
    in
    List.iter (execute_pending t) ready
  end

let apply_data t ch ~origin ~seq msg =
  if seq <= ch.c_applied then begin
    (* Duplicate or post-recovery re-send: absorbed, but re-acked so the
       sender's outbox can drain even when the original ack was lost. *)
    Obs.Metrics.incr dup_rx_c;
    send_ack t ch
  end
  else if seq > ch.c_applied + 1 then
    (* Out of order: the sender retransmits its whole unacked window in
       sequence order, so the predecessor will arrive again. *)
    Obs.Metrics.incr gap_rx_c
  else begin
    let applied =
      match msg with
      | Wire.Delegate { del_id; base; len; rights } ->
        journal t (J_import { origin; del_id; base; len; rights; applied = seq });
        jsync t;
        Hashtbl.replace t.imports (origin, del_id)
          { imp_origin = origin; imp_del_id = del_id; imp_base = base; imp_len = len;
            imp_rights = rights };
        true
      | Wire.Revoke { del_id } ->
        journal t (J_unimport { origin; del_id; applied = seq });
        jsync t;
        Hashtbl.remove t.imports (origin, del_id);
        true
      | Wire.Data { chan; payload } -> (
        match Hashtbl.find_opt t.handlers chan with
        | None ->
          (* Handlers are volatile (re-registered after recovery, like
             session keys): leave the applied floor alone so the
             sender's retransmit redelivers once one is installed. *)
          Obs.Metrics.incr reject_c;
          false
        | Some f ->
          (* Handler first: its own durable effect (the migration
             journal record) must hit the medium before the floor
             advances and the ack leaves — a crash in between makes the
             sender retransmit into the handler's idempotent dedup. *)
          f origin payload;
          journal t (J_recv { origin; applied = seq });
          jsync t;
          true)
      | Wire.Ack _ -> assert false
    in
    if applied then begin
      ch.c_applied <- seq;
      Obs.Metrics.incr delivered_c;
      send_ack t ch
    end
  end

let handle t raw =
  if Fault.fires deliver_point then Obs.Metrics.incr drops_c
  else
    match Wire.split_datagram raw with
    | Error _ -> Obs.Metrics.incr reject_c
    | Ok (body, mac) -> (
      match Wire.decode_body body with
      | Error _ -> Obs.Metrics.incr reject_c
      | Ok (origin, seq, msg) -> (
        match Hashtbl.find_opt t.channels origin with
        | None -> Obs.Metrics.incr reject_c
        | Some ch -> (
          match ch.ch_key with
          | None -> Obs.Metrics.incr reject_c
          | Some key ->
            if not (Wire.verify ~key ~body ~mac) then Obs.Metrics.incr reject_c
            else
              match msg with
              | Wire.Ack { upto } -> on_ack t ch upto
              | Wire.Delegate _ | Wire.Revoke _ | Wire.Data _ ->
                apply_data t ch ~origin ~seq msg)))

let poll t =
  let n = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    match Network.recv t.net t.name with
    | None -> continue_ := false
    | Some raw ->
      incr n;
      handle t raw
  done;
  !n

(* --- journal compaction ---------------------------------------------- *)

(* The journal is a redo log: completed delegations, retired imports and
   superseded ack floors leave records behind that replay no longer
   needs, so an append-only blob (and its recovery replay) would grow
   without bound over the endpoint's life. Compaction appends a snapshot
   of live state in replay order, makes it durable, then drops the
   prefix it supersedes — the same checkpoint-then-compact shape as the
   monitor WAL. A crash between the two steps leaves prefix + snapshot,
   which replays to the same state (every snapshot record is idempotent
   under replay). *)
let snapshot_records t =
  let recs = ref [] in
  let add r = recs := r :: !recs in
  Hashtbl.iter (fun peer proxy -> add (J_peer { peer; proxy })) t.proxies;
  Hashtbl.iter
    (fun peer ch ->
      add (J_chan { peer; next_ = ch.c_next; acked = ch.c_acked; applied = ch.c_applied }))
    t.channels;
  let dels =
    Hashtbl.fold (fun _ d acc -> d :: acc) t.dels []
    |> List.sort (fun a b -> Int.compare a.del_id b.del_id)
  in
  List.iter
    (fun d ->
      add
        (J_delegate
           { del_id = d.del_id; peer = d.del_peer; proxy_cap = d.proxy_cap;
             base = d.del_base; len = d.del_len; rights = d.del_rights;
             seq = d.del_seq }))
    dels;
  Hashtbl.iter
    (fun _ i ->
      (* [applied = 0] is safe: replay folds applied floors with [max]
         and the J_chan record above already carries the real one. *)
      add
        (J_import
           { origin = i.imp_origin; del_id = i.imp_del_id; base = i.imp_base;
             len = i.imp_len; rights = i.imp_rights; applied = 0 }))
    t.imports;
  Hashtbl.iter
    (fun (peer, seq) (chan, payload) -> add (J_send { peer; seq; chan; payload }))
    t.sends;
  Hashtbl.iter
    (fun cap p -> add (J_pending { cap; caller = p.pr_caller; dels = p.pr_dels }))
    t.pending;
  List.iter
    (fun d -> if d.del_state = Revoked then add (J_revoked { del_id = d.del_id }))
    dels;
  List.rev !recs

let compact t =
  match t.store with
  | None -> ()
  | Some s ->
    let upto = t.jseq in
    let recs = snapshot_records t in
    List.iter (journal t) recs;
    jsync t;
    ignore (Persist.Wal.compact s ~blob:fleet_blob ~upto);
    t.jrecs <- List.length recs

(* Auto-compaction bounds, from the endpoint's {!config}: never bother
   below [compact_min] records, and only rewrite once dead records
   dominate live state [compact_ratio]:1. *)
let maybe_compact t =
  if t.store <> None && t.jrecs >= t.config.compact_min then begin
    let live =
      Hashtbl.length t.proxies + Hashtbl.length t.channels + Hashtbl.length t.dels
      + Hashtbl.length t.imports + Hashtbl.length t.pending + Hashtbl.length t.sends
    in
    if t.jrecs > t.config.compact_ratio * live then compact t
  end

(* --- retry / degraded mode ------------------------------------------ *)

let tick t =
  t.clock <- t.clock + 1;
  Hashtbl.iter
    (fun _ ch ->
      if (not (Queue.is_empty ch.outbox)) && ch.ch_key <> None && t.clock >= ch.due
      then begin
        if Fault.fires partition_point then
          (* The whole round vanishes: backoff still advances, exactly
             as if every datagram were dropped in flight. *)
          Obs.Metrics.incr drops_c
        else begin
          Queue.iter
            (fun e ->
              Obs.Metrics.incr retries_c;
              Obs.Metrics.incr ch.l_retries;
              transmit t ch e.ob_body)
            ch.outbox
        end;
        ch.attempts <- ch.attempts + 1;
        ch.backoff <- min (ch.backoff * 2) max_backoff;
        ch.due <- t.clock + ch.backoff;
        if ch.attempts >= degrade_after && ch.ch_state = Healthy then begin
          ch.ch_state <- Degraded { since = t.clock; attempts = ch.attempts };
          Obs.Metrics.incr ch.l_timeouts;
          Obs.Metrics.set_gauge degraded_g (degraded_count t)
        end;
        match ch.ch_state with
        | Degraded d -> ch.ch_state <- Degraded { d with attempts = ch.attempts }
        | Healthy -> ()
      end)
    t.channels;
  (* Retry pending revocations whose acks are all in but whose local
     execution was rolled back by a fault. *)
  let ready =
    Hashtbl.fold (fun _ p acc -> if p.pr_waiting = [] then p :: acc else acc) t.pending []
    |> List.sort (fun a b -> Int.compare a.pr_cap b.pr_cap)
  in
  List.iter (execute_pending t) ready;
  maybe_compact t

(* --- construction and recovery -------------------------------------- *)

let freeze_all t =
  let tr = tree t in
  Hashtbl.iter
    (fun _ d ->
      match Cap.Captree.freeze tr d.proxy_cap with Ok () | Error _ -> ())
    t.dels;
  Hashtbl.iter
    (fun cap _ -> match Cap.Captree.freeze tr cap with Ok () | Error _ -> ())
    t.pending

(* Proxy-owned caps with no delegation record are half-finished
   delegations: the crash hit between [Monitor.share] and the journal
   fsync, so no peer can have seen the delegation (sends only happen
   after the record is durable). Revoking them locally is safe and
   mandatory — otherwise the refcount story claims a remote holder that
   does not exist. *)
let reconcile t =
  let tr = tree t in
  let known = Hashtbl.create 16 in
  Hashtbl.iter (fun _ d -> Hashtbl.replace known d.proxy_cap ()) t.dels;
  Hashtbl.iter
    (fun _ proxy ->
      List.iter
        (fun cap ->
          if not (Hashtbl.mem known cap) then begin
            let caller =
              match Cap.Captree.parent tr cap with
              | Some pid ->
                Option.value (Cap.Captree.owner tr pid) ~default:Tyche.Domain.initial
              | None -> Tyche.Domain.initial
            in
            match Tyche.Monitor.revoke t.monitor ~caller ~cap with
            | Ok () -> ()
            | Error _ -> Obs.Metrics.incr reject_c
          end)
        (Cap.Captree.all_caps_of_domain tr proxy))
    t.proxies

let rebuild_outboxes t =
  let staged = Hashtbl.create 4 in
  let stage peer e =
    let l = match Hashtbl.find_opt staged peer with Some l -> l | None -> [] in
    Hashtbl.replace staged peer (e :: l)
  in
  (* Data frames the peer already acked are dead — prune them so the
     next compaction snapshot doesn't resurrect them; the rest rejoin
     the retransmission window alongside delegations and revokes. *)
  let stale =
    Hashtbl.fold
      (fun ((peer, seq) as k) _ acc ->
        if seq <= (channel_of t peer).c_acked then k :: acc else acc)
      t.sends []
  in
  List.iter (Hashtbl.remove t.sends) stale;
  Hashtbl.iter
    (fun (peer, seq) (chan, payload) ->
      stage peer
        { ob_seq = seq;
          ob_body = Wire.encode_body ~origin:t.name ~seq (Wire.Data { chan; payload });
          ob_sent = t.clock })
    t.sends;
  Hashtbl.iter
    (fun _ d ->
      let ch = channel_of t d.del_peer in
      (match d.del_state with
      | Active | Revoking ->
        if d.del_seq > ch.c_acked then
          stage d.del_peer
            { ob_seq = d.del_seq;
              ob_body =
                Wire.encode_body ~origin:t.name ~seq:d.del_seq
                  (Wire.Delegate
                     { del_id = d.del_id; base = d.del_base; len = d.del_len;
                       rights = d.del_rights });
              ob_sent = t.clock }
      | Revoked -> ());
      if d.del_state = Revoking && d.revoke_seq > ch.c_acked then
        stage d.del_peer
          { ob_seq = d.revoke_seq;
            ob_body =
              Wire.encode_body ~origin:t.name ~seq:d.revoke_seq
                (Wire.Revoke { del_id = d.del_id });
            ob_sent = t.clock })
    t.dels;
  Hashtbl.iter
    (fun peer ch ->
      (match Hashtbl.find_opt staged peer with
      | None -> ()
      | Some entries ->
        List.iter
          (fun e -> Queue.add e ch.outbox)
          (List.sort (fun a b -> Int.compare a.ob_seq b.ob_seq) entries));
      update_backlog t ch)
    t.channels

let replay t =
  match t.store with
  | None -> ()
  | Some s ->
    let { Persist.Wal.records; truncated; _ } = Persist.Wal.read s ~blob:fleet_blob in
    (* A crash can leave a torn frame at the end of the blob. Everything
       appended after it would be invisible to the longest-valid-prefix
       read of the NEXT recovery — which would silently roll back acked
       imports. Rewrite the journal to its valid prefix before any new
       record lands behind the tear. *)
    if truncated then begin
      Persist.Wal.reset s ~blob:fleet_blob;
      List.iter
        (fun (seq, payload) -> Persist.Wal.append s ~blob:fleet_blob ~seq payload)
        records;
      Persist.Store.fsync s fleet_blob
    end;
    t.jrecs <- List.length records;
    List.iter
      (fun (seq, payload) ->
        t.jseq <- max t.jseq seq;
        match decode_jrec payload with
        | exception Persist.Wire.Corrupt _ -> ()
        | J_peer { peer; proxy } ->
          Hashtbl.replace t.proxies peer proxy;
          ignore (channel_of t peer)
        | J_delegate { del_id; peer; proxy_cap; base; len; rights; seq } ->
          let ch = channel_of t peer in
          ch.c_next <- max ch.c_next (seq + 1);
          t.next_del <- max t.next_del (del_id + 1);
          Hashtbl.replace t.dels del_id
            { del_id; del_peer = peer; proxy_cap; del_base = base; del_len = len;
              del_rights = rights; del_seq = seq; del_state = Active; revoke_seq = 0 }
        | J_import { origin; del_id; base; len; rights; applied } ->
          let ch = channel_of t origin in
          ch.c_applied <- max ch.c_applied applied;
          Hashtbl.replace t.imports (origin, del_id)
            { imp_origin = origin; imp_del_id = del_id; imp_base = base;
              imp_len = len; imp_rights = rights }
        | J_unimport { origin; del_id; applied } ->
          let ch = channel_of t origin in
          ch.c_applied <- max ch.c_applied applied;
          Hashtbl.remove t.imports (origin, del_id)
        | J_pending { cap; caller; dels } ->
          List.iter
            (fun (peer, del_id, seq) ->
              let ch = channel_of t peer in
              ch.c_next <- max ch.c_next (seq + 1);
              match Hashtbl.find_opt t.dels del_id with
              | Some d ->
                d.del_state <- Revoking;
                d.revoke_seq <- seq
              | None -> ())
            dels;
          Hashtbl.replace t.pending cap
            { pr_cap = cap;
              pr_caller = caller;
              pr_dels = dels;
              pr_waiting = List.map (fun (peer, id, _) -> (peer, id)) dels }
        | J_revoked { del_id } -> (
          match Hashtbl.find_opt t.dels del_id with
          | Some d ->
            d.del_state <- Revoked;
            Hashtbl.iter
              (fun _ p ->
                p.pr_waiting <-
                  List.filter (fun (_, id) -> id <> del_id) p.pr_waiting)
              t.pending
          | None -> ())
        | J_acked { peer; upto } ->
          let ch = channel_of t peer in
          ch.c_acked <- max ch.c_acked upto
        | J_chan { peer; next_; acked; applied } ->
          let ch = channel_of t peer in
          ch.c_next <- max ch.c_next next_;
          ch.c_acked <- max ch.c_acked acked;
          ch.c_applied <- max ch.c_applied applied
        | J_send { peer; seq; chan; payload } ->
          let ch = channel_of t peer in
          ch.c_next <- max ch.c_next (seq + 1);
          Hashtbl.replace t.sends (peer, seq) (chan, payload)
        | J_recv { origin; applied } ->
          let ch = channel_of t origin in
          ch.c_applied <- max ch.c_applied applied
        | J_done { cap } -> (
          match Hashtbl.find_opt t.pending cap with
          | Some p ->
            List.iter (fun (_, del_id, _) -> Hashtbl.remove t.dels del_id) p.pr_dels;
            Hashtbl.remove t.pending cap
          | None -> ()))
      records

let create ?store ?(config = default_config) ~monitor ~name ~net () =
  let t =
    { monitor;
      name;
      net;
      store;
      config;
      jseq = 0;
      jrecs = 0;
      channels = Hashtbl.create 4;
      dels = Hashtbl.create 16;
      imports = Hashtbl.create 16;
      proxies = Hashtbl.create 4;
      pending = Hashtbl.create 4;
      sends = Hashtbl.create 16;
      handlers = Hashtbl.create 4;
      next_del = 1;
      clock = 0 }
  in
  replay t;
  (* Order matters: reconcile half-finished delegations while nothing is
     frozen (their revocations must not be refused), then re-freeze the
     journaled remote holders, then rebuild the retransmission window.
     Pending revocations whose acks were all in before the crash execute
     immediately. *)
  reconcile t;
  freeze_all t;
  rebuild_outboxes t;
  let ready =
    Hashtbl.fold (fun _ p acc -> if p.pr_waiting = [] then p :: acc else acc) t.pending []
    |> List.sort (fun a b -> Int.compare a.pr_cap b.pr_cap)
  in
  List.iter (execute_pending t) ready;
  t

(* --- inspection ------------------------------------------------------ *)

let peer_state t ~peer =
  Option.map (fun ch -> ch.ch_state) (Hashtbl.find_opt t.channels peer)

let delegations t =
  Hashtbl.fold (fun _ d acc -> d :: acc) t.dels []
  |> List.sort (fun a b -> Int.compare a.del_id b.del_id)

let imports t =
  Hashtbl.fold (fun _ i acc -> i :: acc) t.imports []
  |> List.sort (fun a b ->
         match String.compare a.imp_origin b.imp_origin with
         | 0 -> Int.compare a.imp_del_id b.imp_del_id
         | c -> c)

let pending_revokes t =
  Hashtbl.fold (fun cap _ acc -> cap :: acc) t.pending [] |> List.sort Int.compare

let backlog t ~peer =
  match Hashtbl.find_opt t.channels peer with
  | Some ch -> Queue.length ch.outbox
  | None -> 0

let applied t ~peer =
  match Hashtbl.find_opt t.channels peer with Some ch -> ch.c_applied | None -> 0

let acked t ~peer =
  match Hashtbl.find_opt t.channels peer with Some ch -> ch.c_acked | None -> 0

let idle t = total_backlog t = 0 && Hashtbl.length t.pending = 0

let monitor t = t.monitor
let endpoint_name t = t.name

(* --- fleet attestation ----------------------------------------------- *)

type attestation = {
  fa_members : (string * Crypto.Sha256.digest) list;
  fa_root : Crypto.Sha256.digest;
  fa_tree : Crypto.Merkle.t;
}

(* One monitor's attest root: a batch attestation over every domain
   (PR 2's Merkle machinery signs one root for the whole machine), then
   a Merkle root over the canonical payloads. Remote proxy domains are
   attested like any other — a verifier sees the delegation as a holder
   named "remote:<peer>" in the exporter's body. *)
let member_root m ~nonce =
  let ids = List.map Tyche.Domain.id (Tyche.Monitor.domains m) in
  match Tyche.Monitor.attest_batch m ~caller:Tyche.Domain.initial ~domains:ids ~nonce with
  | Error e -> Error (Monitor_error e)
  | Ok atts ->
    let leaves =
      List.map (fun a -> Crypto.Sha256.string (Tyche.Attestation.payload a)) atts
    in
    Ok (Crypto.Merkle.root (Crypto.Merkle.build leaves))

let attest ~nonce members =
  let rec roots acc = function
    | [] -> Ok (List.rev acc)
    | (name, m) :: rest ->
      let* r = member_root m ~nonce in
      roots ((name, r) :: acc) rest
  in
  let* fa_members = roots [] members in
  let fa_tree = Crypto.Merkle.build (List.map snd fa_members) in
  Ok { fa_members; fa_root = Crypto.Merkle.root fa_tree; fa_tree }

let verify_member att ~name ~member_root =
  let rec index i = function
    | [] -> None
    | (n, _) :: rest -> if n = name then Some i else index (i + 1) rest
  in
  match index 0 att.fa_members with
  | None -> false
  | Some i ->
    let proof = Crypto.Merkle.prove att.fa_tree i in
    Crypto.Merkle.verify ~root:att.fa_root ~leaf:member_root proof
