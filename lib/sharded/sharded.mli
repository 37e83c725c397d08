(** A federation of per-shard monitors behind one global namespace.

    Each shard is a complete world — its own machine, backend, TPM and
    {!Monitor.t} — pinned to (at most) one OCaml Domain's worth of
    mutation at a time by a per-shard lock. Isolation domains are
    replicated across every shard; resources and capability subtrees
    live on exactly one. Global ids are stateless encodings of
    [(shard, local)]: capability [local lsl 6 lor shard], address
    [shard * 2^40 + local], core [shard * cores_per_shard + local] —
    shard-count invariant for workloads confined to shard 0.

    Readers of the indexed queries ({!refcount}, {!holders},
    {!caps_of}) run an optimistic seqlock protocol and never block
    writers. Cross-shard mutations (domain destruction) run a
    two-phase commit over the per-monitor transaction brackets:
    all-or-nothing under injected faults at the [shard.prepare] and
    [shard.commit] points. Durability is a single front-end redo log
    in global ids, appended post-commit (the WAL contract of
    {!Monitor} unchanged). *)

open Tyche

type t

val max_shards : int
val addr_stride : int

(** {2 Id translation} *)

val gcap : shard:int -> Cap.Captree.cap_id -> Cap.Captree.cap_id
val cap_shard : Cap.Captree.cap_id -> int
val cap_local : Cap.Captree.cap_id -> Cap.Captree.cap_id
val gaddr : shard:int -> Hw.Addr.t -> Hw.Addr.t
val grange : shard:int -> Hw.Addr.Range.t -> Hw.Addr.Range.t

(** {2 Boot} *)

val default_shards : unit -> int
(** The [TYCHE_SHARDS] environment knob (default 1, clamped to
    [1..max_shards]). *)

val boot :
  ?shards:int ->
  ?signer_height:int ->
  ?keypool:Crypto.Keypool.t ->
  rng:Crypto.Rng.t ->
  mk:
    (shard:int ->
    Hw.Machine.t * Backend_intf.t * Rot.Tpm.t * Crypto.Rng.t * Hw.Addr.Range.t) ->
  unit ->
  t
(** Boot [shards] worlds (default {!default_shards}); [mk ~shard:i]
    supplies shard [i]'s machine, backend, TPM, rng and monitor range.
    Every shard must have the same core count, and shard memory must
    fit the address stride. [rng] feeds the federation's
    aggregate-attestation signer, whose root is bound into shard 0's
    TPM (PCR {!Monitor.key_binding_pcr}). *)

val shard_count : t -> int
val cores : t -> int
val cores_per_shard : t -> int
val shard_monitor : t -> int -> Monitor.t

(** {2 Domain lifecycle (broadcast; destroy is the 2PC)} *)

val create_domain :
  t -> caller:Domain.id -> name:string -> kind:Domain.kind -> (Domain.id, Monitor.error) result

val find_domain : t -> Domain.id -> Domain.t option

val set_entry_point :
  t -> caller:Domain.id -> domain:Domain.id -> Hw.Addr.t -> (unit, Monitor.error) result

val set_flush_policy :
  t -> caller:Domain.id -> domain:Domain.id -> bool -> (unit, Monitor.error) result

val mark_measured :
  t -> caller:Domain.id -> domain:Domain.id -> Hw.Addr.Range.t -> (unit, Monitor.error) result

val seal : t -> caller:Domain.id -> domain:Domain.id -> (unit, Monitor.error) result

val destroy_domain :
  t -> caller:Domain.id -> domain:Domain.id -> (unit, Monitor.error) result
(** Two-phase commit across every shard. Fault points: ["shard.prepare"]
    fires after every journal is prepared but before the commit
    decision (global rollback, error returned); ["shard.commit"] fires
    per-shard after the decision and is absorbed — post-decision
    commits are infallible in-memory work. *)

(** {2 Capability operations (owning shard only)} *)

val caps_of : t -> Domain.id -> Cap.Captree.cap_id list

val share :
  t ->
  caller:Domain.id ->
  cap:Cap.Captree.cap_id ->
  to_:Domain.id ->
  rights:Cap.Rights.t ->
  cleanup:Cap.Revocation.t ->
  ?subrange:Hw.Addr.Range.t ->
  unit ->
  (Cap.Captree.cap_id, Monitor.error) result

val grant :
  t ->
  caller:Domain.id ->
  cap:Cap.Captree.cap_id ->
  to_:Domain.id ->
  rights:Cap.Rights.t ->
  cleanup:Cap.Revocation.t ->
  (Cap.Captree.cap_id, Monitor.error) result

val split :
  t -> caller:Domain.id -> cap:Cap.Captree.cap_id -> at:Hw.Addr.t ->
  (Cap.Captree.cap_id * Cap.Captree.cap_id, Monitor.error) result

val carve :
  t -> caller:Domain.id -> cap:Cap.Captree.cap_id -> subrange:Hw.Addr.Range.t ->
  (Cap.Captree.cap_id, Monitor.error) result

val revoke :
  t -> caller:Domain.id -> cap:Cap.Captree.cap_id -> (unit, Monitor.error) result

(** {2 Indexed queries (lock-free read path)} *)

val refcount : t -> Cap.Resource.t -> int
val holders : t -> Cap.Resource.t -> Domain.id list

(** {2 Transitions and domain-context access} *)

val current_domain : t -> core:int -> Domain.id

val call :
  t -> core:int -> target:Domain.id ->
  (Backend_intf.transition_path, Monitor.error) result

val ret : t -> core:int -> (Backend_intf.transition_path, Monitor.error) result
val timer_tick : t -> core:int -> (Domain.id, Monitor.error) result

val route_interrupt :
  t -> caller:Domain.id -> device:int -> vector:int -> core:int ->
  (unit, Monitor.error) result

val load : t -> core:int -> Hw.Addr.t -> (int, Monitor.error) result
val store : t -> core:int -> Hw.Addr.t -> int -> (unit, Monitor.error) result
val load_string : t -> core:int -> Hw.Addr.Range.t -> (string, Monitor.error) result
val store_string : t -> core:int -> Hw.Addr.t -> string -> (unit, Monitor.error) result
val get_reg : t -> core:int -> int -> (int, Monitor.error) result
val set_reg : t -> core:int -> int -> int -> (unit, Monitor.error) result

(** {2 Attestation} *)

val attest :
  t -> caller:Domain.id -> domain:Domain.id -> nonce:string ->
  (Attestation.t, Monitor.error) result
(** One aggregate attestation: per-shard bodies translated into the
    global namespace, concatenated, and signed by the federation
    signer. *)

val attestation_root : t -> Crypto.Sha256.digest
val boot_quote : t -> nonce:string -> Rot.Tpm.Quote.t
val attest_count : t -> int

(** {2 API dispatch} *)

val dispatch : t -> caller:Domain.id -> core:int -> Api.call -> Api.response
(** The sharded mirror of {!Api.dispatch}, over global ids. *)

(** {2 Durability} *)

val enable_persistence :
  t -> store:Persist.Store.t -> ?fsync_every:int -> ?latency_bound:int -> unit -> unit

val flush : t -> unit
val persist_seq : t -> int option
val durable_seq : t -> int option

type recovery_report = {
  sr_wal_records : int;
  sr_replayed : int;
  sr_wal_truncated : bool;
  sr_stopped_early : string option;
}

val recover :
  ?shards:int ->
  ?signer_height:int ->
  ?keypool:Crypto.Keypool.t ->
  rng:Crypto.Rng.t ->
  mk:
    (shard:int ->
    Hw.Machine.t * Backend_intf.t * Rot.Tpm.t * Crypto.Rng.t * Hw.Addr.Range.t) ->
  store:Persist.Store.t ->
  unit ->
  t * recovery_report

(** {2 Telemetry} *)

val observe : t -> Obs.report
