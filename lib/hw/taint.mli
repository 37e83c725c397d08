(** Information-flow taint oracle for clean-up policies (claim C6).

    The paper's §4.1 lets the parent choose what revocation and domain
    transitions clean up: zero the memory, flush the caches, both, or
    nothing. The simulator enforces those policies mechanically
    ({!Cap.Revocation.apply}, the backends' transition flushes), but
    until now nothing *observed* whether they actually stop a domain
    from reading another domain's residue. This module is that
    observer.

    On every detach/revoke and every flushing transition, the backend
    taints the affected state with the prior owner's domain id:

    - physical pages (guarded when the policy promises zeroing),
    - resident cache lines (guarded when the policy promises a flush),
    - the victim's TLB entries (always guarded — a revocation must
      always shoot these down, or the stale translation bypasses the
      EPT/PMP check entirely).

    The clean-up primitives themselves ({!Physmem.zero_range},
    {!Cache.flush_range}/[flush_all], {!Tlb.flush_asid}/[flush_all])
    erase the taint they clean, so after a correct operation no
    {e guarded} taint survives. The access paths ({!Cpu.load}/[store],
    {!Cache.touch}, {!Tlb.lookup}) consult the oracle: a domain
    observing {e guarded} taint of another domain is a leak — the
    promised clean-up did not happen. Unguarded residue (the [Keep]
    policy) is sanctioned by the parent's explicit choice and only
    counted.

    Modes: [Off] (no accounting), [Record] (count leaks, never raise —
    the default, so production paths pay two empty hashtable probes per
    access), [Enforce] (raise {!Leak} at the observing access — what
    the policy-matrix tests and the byzantine driver arm). *)

type mode = Off | Record | Enforce

type surface = Mem | Line | Tlb_entry

val surface_to_string : surface -> string

type leak = {
  surface : surface;
  reader : int;  (** ASID (= domain id) of the observing access. *)
  prior : int;  (** Domain whose residue was observed. *)
  addr : Addr.t;  (** Host-physical address (page/line base; gpa for TLB). *)
}

exception Leak of leak

val pp_leak : Format.formatter -> leak -> unit

val line_size : int
(** Cache-line granularity of line taint; equal to {!Cache.line_size}
    (asserted there — [Taint] sits below [Cache] in the module
    graph). *)

type t

val create : unit -> t

val mode : t -> mode
val set_mode : t -> mode -> unit

(** {2 Tainting (backend clean-up paths)}

    Each call returns an [undo] that restores the previous taint state
    of exactly the keys it touched — backends journal it so a rolled
    back operation leaves no phantom taint. *)

type undo

val taint_pages : t -> Addr.Range.t -> prior:int -> guarded:bool -> undo
(** Taint every page of a host-physical range. *)

val taint_lines : t -> int list -> prior:int -> guarded:bool -> undo
(** Taint cache lines by line index (see {!Cache.resident_lines_in},
    {!Cache.lines_of_tag} for computing the victim set). *)

val taint_tlb : t -> (int * Addr.t) list -> prior:int -> undo
(** Taint TLB entries by [(asid, gpa page)] key (see
    {!Tlb.entries_into}). TLB taint is always guarded. *)

val undo : t -> undo -> unit

(** {2 Clearing (clean-up primitives)} *)

val clear_pages : t -> Addr.Range.t -> unit
val clear_lines : t -> first:int -> last:int -> unit
(** Clear the taint of cache lines [first..last] (line indexes); costs
    the smaller of the span and the tainted-line count. *)

val clear_all_lines : t -> unit
val clear_tlb_entry : t -> asid:int -> gpa:Addr.t -> unit
val clear_tlb_asid : t -> asid:int -> unit
val clear_all_tlb : t -> unit

(** {2 Observation (access paths)} *)

val observe_page : t -> reader:int -> Addr.t -> unit
(** A checked load/store reached this host-physical address. Guarded
    foreign taint is a leak; unguarded foreign taint counts as
    sanctioned residue; own taint is ignored. *)

val observe_line : t -> reader:int -> Addr.t -> unit
(** A cache fill touched this address's line. Same rules. *)

val observe_tlb : t -> asid:int -> gpa:Addr.t -> unit
(** A TLB lookup hit this entry. Any hit on a tainted entry is a leak
    regardless of reader: the entry was supposed to be shot down, and
    on x86 a hit skips the EPT walk entirely. *)

(** {2 Audit (fsck / tests)} *)

type stats = {
  tainted_pages : int;
  tainted_lines : int;
  tainted_tlb : int;
  leaks : int;  (** Guarded foreign taint observed (hard failures). *)
  sanctioned : int;  (** [Keep]-policy residue observed (by design). *)
}

val stats : t -> stats

val last_leak : t -> leak option

val guarded_residue : t -> (surface * Addr.t * int) list
(** Every guarded taint entry still present, as [(surface, addr,
    prior)]. Empty in any quiescent monitor: whatever clean-up the
    policy promised must have run by the end of the API call that
    detached or transitioned. The fsck taint pass asserts this. *)

val reset_counters : t -> unit
(** Zero [leaks]/[sanctioned] (taint entries are kept). *)
