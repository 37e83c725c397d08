(** The capability tree: Tyche's platform-independent core (§4.1).

    Every resource a domain can touch is named by a capability node.
    Nodes form a forest whose edges record *lineage*: sharing or granting
    a resource creates a child node, so the delegator can always take the
    resource back by revoking the subtree — even when domains share in
    cycles (A shares to B who shares back to A), because the lineage is a
    tree regardless of the ownership cycle, cascading revocation always
    terminates.

    This module is pure bookkeeping, the analogue of the paper's
    "platform-independent capability model ... written in safe Rust and
    meant to be formally verified": operations validate, mutate the tree,
    and return the list of {!effect}s the platform backend must apply to
    hardware. It never touches hardware itself.

    Node states: a node is [`Active] (confers access) or [`Inactive]
    (its resource has been granted away or split into children). Only
    active nodes count for reference counts and enforcement. *)

type t
type cap_id = int
type domain_id = int

(** Hardware actions implied by a tree operation; the monitor feeds
    these to the platform backend in order. *)
type effect =
  | Attach of { domain : domain_id; resource : Resource.t; perm : Hw.Perm.t }
  | Detach of { domain : domain_id; resource : Resource.t; cleanup : Revocation.t }

type error =
  | No_such_capability of cap_id
  | Capability_inactive of cap_id
  | Rights_exceeded (** Child rights would exceed the parent's. *)
  | Sharing_denied (** The capability lacks [can_share]. *)
  | Grant_denied (** The capability lacks [can_grant]. *)
  | Bad_subrange (** Subrange outside the capability, or on a non-memory
                     resource, or a split point outside the range. *)
  | Overlapping_root (** A new root would alias an existing root. *)
  | Frozen of cap_id
    (** The capability (or an ancestor / a descendant, depending on the
        operation) is frozen by a pending cross-machine revocation; the
        operation is refused until {!thaw}. Carries the frozen id. *)

val pp_error : Format.formatter -> error -> unit
val error_to_string : error -> string

val create : unit -> t

val root :
  t -> owner:domain_id -> Resource.t -> Rights.t -> (cap_id * effect list, error) result
(** Create a root capability (boot-time only: the monitor hands the
    initial domain the whole machine this way). Roots must not overlap
    one another. *)

val share :
  t ->
  cap_id ->
  to_:domain_id ->
  rights:Rights.t ->
  cleanup:Revocation.t ->
  ?subrange:Hw.Addr.Range.t ->
  unit ->
  (cap_id * effect list, error) result
(** Delegate access while keeping it: creates an active child owned by
    [to_]; the parent stays active. [cleanup] runs when the child is
    later revoked. [subrange] narrows a memory capability. *)

val grant :
  t ->
  cap_id ->
  to_:domain_id ->
  rights:Rights.t ->
  cleanup:Revocation.t ->
  (cap_id * effect list, error) result
(** Transfer exclusive control: creates an active child owned by [to_]
    and deactivates the parent. Partial grants require an explicit
    {!split} or {!carve} first, keeping move semantics unambiguous. *)

val split :
  t -> cap_id -> at:Hw.Addr.t -> (cap_id * cap_id * effect list, error) result
(** Split a memory capability at an interior address into two children
    owned by the same domain; the parent deactivates. No hardware effect
    (ownership and permissions are unchanged). *)

val carve :
  t -> cap_id -> subrange:Hw.Addr.Range.t -> (cap_id * effect list, error) result
(** Convenience: split (up to twice) so that a capability for exactly
    [subrange] exists, and return it. *)

val revoke : t -> cap_id -> (effect list, error) result
(** Cascading revocation: remove this node and its entire subtree,
    emitting a [Detach] (with each node's clean-up policy) for every
    active node removed. If the parent was deactivated by a grant or
    split and loses its last child, it reactivates (its owner regains
    access, with an [Attach] effect). *)

val revoke_children : t -> cap_id -> (effect list, error) result
(** Revoke every delegation made from this capability, keeping it. *)

(** {2 Frozen capabilities (cross-machine revocation)}

    While a revocation is in flight to a remote machine, the local cap
    must neither be mutated (the remote holder's lineage would change
    under it) nor revoked (the proxy node is the only local record that
    a remote machine holds the resource). [Fleet] freezes the cap for
    the duration: {!share}, {!grant}, {!split} and {!carve} refuse on a
    frozen cap or any cap beneath a frozen ancestor, and {!revoke} /
    {!revoke_children} refuse when any frozen cap lies inside the
    target subtree — all with [Error (Frozen id)]. Freezing is
    journaled under an open transaction like every other mutation, but
    is {e not} serialized in snapshots: the fleet journal is the
    durable record and re-freezes during recovery. *)

val freeze : t -> cap_id -> (unit, error) result
(** Idempotent; [Error (No_such_capability _)] if the id is unknown. *)

val thaw : t -> cap_id -> unit
(** Idempotent; unknown or unfrozen ids are ignored. *)

val is_frozen : t -> cap_id -> bool

val frozen_caps : t -> cap_id list
(** Sorted ids of currently frozen caps (diagnostics and audits). *)

(** {2 Transactions (crash consistency)}

    The monitor wraps each mutating API call in a transaction. While one
    is open, every tree mutation journals its exact inverse (node table,
    incremental indexes, parent/roots links, id counter); if a hardware
    effect then fails mid-operation, {!txn_rollback} replays the journal
    newest-first and the tree is structurally identical to its
    pre-transaction state. {!generation} still advances across a
    rollback — a rolled-back tree has identical content but memoized
    derived views (attestation bodies, the region cache) must not be
    reused blindly.

    Fault-free overhead is one branch per mutation primitive (no closure
    is allocated when no transaction is open); E5 in EXPERIMENTS.md
    records the measured cost. *)

val txn_begin : t -> unit
(** Open a transaction; subsequent mutations are journaled.
    @raise Invalid_argument if one is already open (no nesting). *)

val txn_commit : t -> unit
(** Close the transaction and discard the journal (the mutations keep). *)

val txn_rollback : t -> unit
(** Close the transaction and undo every journaled mutation, newest
    first. After it returns the tree content equals the state at
    {!txn_begin}. *)

val in_txn : t -> bool

(** {2 Inspection} *)

val owner : t -> cap_id -> domain_id option
val resource : t -> cap_id -> Resource.t option
val rights : t -> cap_id -> Rights.t option
val cleanup : t -> cap_id -> Revocation.t option
val is_active : t -> cap_id -> bool
val parent : t -> cap_id -> cap_id option
val children : t -> cap_id -> cap_id list
val caps_of_domain : t -> domain_id -> cap_id list
(** Active capabilities owned by the domain, in creation order. *)

val all_caps_of_domain : t -> domain_id -> cap_id list
(** Every capability owned by the domain, including inactive ones whose
    resource is currently granted away or split — what domain
    destruction must revoke so delegations made *from* the domain
    cascade too. *)

val is_ancestor : t -> ancestor:cap_id -> cap_id -> bool
val node_count : t -> int

val generation : t -> int
(** Monotonically increasing mutation counter: every operation that
    changes the tree bumps it, so callers can memoize derived views
    (e.g. attestation bodies) and revalidate with an integer compare. *)

val segment_count : t -> int
(** Number of segments in the delta-maintained region index (diagnostic:
    fragmentation stays proportional to live capability bounds). *)

val active_overlapping : t -> Resource.t -> cap_id list
(** Sorted ids of active capabilities overlapping the resource, answered
    from the root interval index with range-nesting pruning. *)

(** {2 Reference counting and the Fig. 4 view} *)

val refcount : t -> Resource.t -> int
(** Number of *distinct domains* holding an active capability that
    overlaps the resource — the system-wide count of §3.1. *)

val holders : t -> Resource.t -> domain_id list
(** Sorted distinct domains with active access to the resource. *)

val region_map : t -> (Hw.Addr.Range.t * domain_id list) list
(** The Fig. 4 view: physical memory flattened into maximal disjoint
    segments, each with the sorted list of domains that can access it
    (adjacent segments with identical holders are merged). *)

val exclusively_owned : t -> domain:domain_id -> Resource.t -> bool
(** True when the domain holds the resource and nobody else overlaps it
    (refcount 1) — the paper's condition for confidential memory. *)

(** {2 Reference (full-scan) implementations}

    The incremental indexes are redundant views over the node table;
    these are the original O(n) scans kept as the executable
    specification. Tests and {!check_index_consistency} compare every
    fast path against them. *)

val caps_of_domain_reference : t -> domain_id -> cap_id list
val all_caps_of_domain_reference : t -> domain_id -> cap_id list
val active_overlapping_reference : t -> Resource.t -> cap_id list
val holders_reference : t -> Resource.t -> domain_id list
val refcount_reference : t -> Resource.t -> int

val region_map_reference : t -> (Hw.Addr.Range.t * domain_id list) list
(** Sweep-line rebuild of the Fig. 4 view (O(n log n), tail-recursive). *)

(** {2 Structural invariants (for tests and the judiciary)} *)

val check_invariants : t -> (unit, string) result
(** Verify: child resources are contained in their parent's; child
    rights attenuate; split children partition their parent exactly;
    inactive nodes have children or are roots whose resource moved;
    the parent links are acyclic; every frozen id names an existing
    node. Returns a description of the first violation. *)

val check_index_consistency : t -> (unit, string) result
(** Cross-check every incremental index (per-domain cap sets, the
    segment store, root interval index, overlap queries) against the
    [_reference] full scans. O(n log n); run by the judiciary sweep and
    the property tests. *)

(** {2 Serialization (crash-restart recovery)}

    [Persist] snapshots dump the tree and recovery rebuilds it. The
    dump is *logical*: node contents, lineage links and activation
    state — none of the incremental indexes, which {!restore} re-derives
    through the same maintenance helpers the mutating operations use.
    Children lists are preserved verbatim because revocation-cascade
    order follows them. *)

type origin =
  | Orig_root (** Created by {!root} at boot. *)
  | Orig_shared
  | Orig_granted
  | Orig_split

type state =
  | Active
  | Inactive_granted (** Transferred away; reactivates if the child is revoked. *)
  | Inactive_split (** Replaced by its split children. *)

val origin_to_int : origin -> int
val origin_of_int : int -> origin option
val state_to_int : state -> int

val state_of_int : int -> state option
(** Snapshot codes for {!origin} and {!state}; the decoders return
    [None] on an unknown code. *)

val origin : t -> cap_id -> origin option
(** How the capability came to exist — lets policy distinguish access a
    domain was *granted* exclusively from access it merely received via
    a share (whose parent's owner kept theirs). *)

type node_spec = {
  ns_id : cap_id;
  ns_resource : Resource.t;
  ns_rights : Rights.t;
  ns_owner : domain_id;
  ns_cleanup : Revocation.t;
  ns_parent : cap_id option;
  ns_origin : origin;
  ns_state : state;
  ns_children : cap_id list; (** Most-recent first, as maintained live. *)
}

val dump : t -> node_spec list
(** Every node, sorted by id (= creation order). *)

val seg_span : int
(** Bucket width for incremental snapshots: bucket [b] covers ids in
    [b*seg_span, (b+1)*seg_span). *)

val bucket_generation : t -> int -> int
(** Generation at which the bucket was last mutated; [0] if never
    (including on a freshly {!restore}d tree, whose buckets are all
    considered clean until the next mutation). Over-approximates: a
    rolled-back transaction leaves its buckets marked. *)

val dump_bucket : t -> int -> node_spec list
(** The nodes whose ids fall in the bucket, sorted by id.
    Concatenating [dump_bucket t 0 .. dump_bucket t n] where
    [n = (next_id t - 1) / seg_span] reproduces {!dump}. *)

val next_id : t -> cap_id
(** The id the next created capability will receive — snapshotted so
    replayed operations reproduce identical ids. *)

val restore : next_id:cap_id -> generation:int -> node_spec list -> t
(** Rebuild a tree from a dump: node table and lineage from the specs,
    every incremental index re-derived. The caller (recovery) is
    expected to run {!check_index_consistency} and the invariant sweep
    afterwards — a snapshot is never trusted blindly. *)

(** {2 Deliberate corruption (test hooks)}

    Damage the tree's redundant derived views — never the node table —
    so the fsck property tests can assert every audit class actually
    fires. Each returns [false] when the requested damage is not
    applicable (no segment at the address, domain absent, ...), so
    generators can retry. Not for use outside tests. *)
module Corrupt : sig
  val add_phantom_holder : t -> base:Hw.Addr.t -> domain:domain_id -> bool
  (** Insert a holder into the segment covering [base] that owns no
      overlapping capability: refcounts and holders now over-report. *)

  val remove_holder : t -> base:Hw.Addr.t -> domain:domain_id -> bool
  (** Delete a legitimate holder from the segment covering [base]:
      refcounts and holders now under-report. *)

  val drop_domain_index_entry : t -> domain:domain_id -> bool
  (** Remove one capability from the per-domain ownership index while
      the node table still records it. *)
end
