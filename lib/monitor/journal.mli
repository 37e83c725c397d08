(** The write-ahead log's record vocabulary: each committed mutation is
    journaled as the {!Op.call} that made it, tagged with its principal.

    The WAL is a {e logical} log — it records the operation, not its
    effects. Replaying the calls through the normal monitor entry points
    against the restored snapshot reproduces the exact tree, because
    every id the monitor hands out (capability ids, domain ids) comes
    from a deterministic counter that the snapshot restores. Two facts a
    call cannot carry get their own records: the digest a seal measured
    (memory contents are not durable, so replay installs the digest
    verbatim) and a timer eviction (a hardware event, not a call). *)

type record =
  | Call of { caller : Domain.id; call : Op.call }
      (** A committed call other than [Call]/[Return], with its caller. *)
  | Transition of { core : int; call : Op.call }
      (** A committed [Call] or [Return] with the core it ran on; replay
          takes the caller from the core's current domain. *)
  | Seal_digest of { caller : Domain.id; domain : Domain.id; measurement : string }
      (** A committed seal and the raw digest it installed. *)
  | Timer_tick of { core : int }  (** A timer eviction on [core]. *)

val encode : record -> string

val decode : string -> record
(** @raise Persist.Wire.Corrupt on malformed input. *)

val pp : Format.formatter -> record -> unit

val replay :
  base_seq:int -> (int * string) list -> (record -> (unit, string) result) -> int * string option
(** [replay ~base_seq records apply] decodes and applies the WAL suffix
    after [base_seq], in order, and returns how many records it applied.
    It stops (never fails) at a sequence gap, an undecodable record, or
    an [apply] that errors or raises, and then also returns why: the
    state is the longest prefix-consistent history the durable bytes
    support, which is the strongest sound answer. *)
