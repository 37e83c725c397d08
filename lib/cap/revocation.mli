(** Revocation ("clean-up") policies.

    Per §3.2, a revocation policy names an operation — zeroing memory,
    flushing micro-architectural state — that the monitor *guarantees*
    executes when the resource is taken back, so a revoked domain cannot
    leave secrets behind or observe the next holder's. *)

type t =
  | Keep (** No clean-up; contents survive revocation. *)
  | Zero (** Zero memory contents. *)
  | Flush_cache (** Flush the cache lines of the region. *)
  | Zero_and_flush (** Both — the obfuscating policy the paper pairs
                       with exclusive access for confidentiality. *)

val zeroes_memory : t -> bool
val flushes_cache : t -> bool

val strongest : t -> t -> t
(** Join: the policy that performs every clean-up either side performs
    (used when merged capabilities disagree). *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string

val to_int : t -> int
(** The policy's wire code, shared by every codec. *)

val of_int : int -> t option
(** Inverse of {!to_int}; [None] on an unknown code. *)

val apply :
  t ->
  mem:Hw.Physmem.t ->
  cache:Hw.Cache.t ->
  counter:Hw.Cycles.counter ->
  Hw.Addr.Range.t ->
  unit
(** Execute the clean-up on a memory range, charging the simulated cost
    of the zeroing stores and cache flushes. *)
