(** The monitor's narrow call interface (§3.2), as data.

    Real deployments reach the monitor through a register-level ABI
    (VMCALL on x86, ecall on RISC-V). This module defines that ABI: a
    first-class call type and its byte-level wire encoding. Having the
    whole API as one small variant is the "microkernel-like, minimal
    and flexible" surface the paper argues for — it is also what a
    verification effort would specify, what the fuzz tests drive, and
    what the write-ahead log journals ({!Journal}). {!Api} re-exports
    it next to the dispatcher. *)

type call =
  | Create_domain of { name : string; kind : Domain.kind }
  | Set_entry_point of { domain : Domain.id; entry : Hw.Addr.t }
  | Set_flush_policy of { domain : Domain.id; flush : bool }
  | Mark_measured of { domain : Domain.id; range : Hw.Addr.Range.t }
  | Seal of { domain : Domain.id }
  | Destroy of { domain : Domain.id }
  | Share of {
      cap : Cap.Captree.cap_id;
      to_ : Domain.id;
      rights : Cap.Rights.t;
      cleanup : Cap.Revocation.t;
      subrange : Hw.Addr.Range.t option;
    }
  | Grant of {
      cap : Cap.Captree.cap_id;
      to_ : Domain.id;
      rights : Cap.Rights.t;
      cleanup : Cap.Revocation.t;
    }
  | Split of { cap : Cap.Captree.cap_id; at : Hw.Addr.t }
  | Carve of { cap : Cap.Captree.cap_id; subrange : Hw.Addr.Range.t }
  | Revoke of { cap : Cap.Captree.cap_id }
  | Enumerate (** List the caller's own capabilities. *)
  | Attest of { domain : Domain.id; nonce : string }
  | Call of { target : Domain.id }
  | Return

type result_value =
  | R_unit
  | R_domain of Domain.id
  | R_cap of Cap.Captree.cap_id
  | R_cap_pair of Cap.Captree.cap_id * Cap.Captree.cap_id
  | R_caps of Cap.Captree.cap_id list
  | R_attestation of Attestation.t
  | R_path of Backend_intf.transition_path

val pp_call : Format.formatter -> call -> unit

val op_name : call -> string
(** Stable lower-case operation name ("share", "revoke", ...), used as
    the span/metric key suffix for per-op observability. *)

val names : string array
(** Every {!op_name}, in opcode order: [names.(opcode c - 1) = op_name c]. *)

(** {2 Wire format}

    An opcode byte, then fixed-width {!Persist.Wire} operands — the
    exact register/shared-page layout a guest ABI would use. *)

val encode : call -> string

val decode : string -> (call, string) result
(** Total parser: never raises. Rejects unknown opcodes and enum codes,
    negative operands, empty ranges and trailing bytes. *)

(** {3 Pieces for framings that embed a call} *)

val opcode : call -> int
(** The wire's first byte, 1 to 15. *)

val put_operands : Buffer.t -> call -> unit

val get_operands : Persist.Wire.reader -> int -> call
(** [get_operands r opcode] reads the operands {!put_operands} wrote.
    @raise Persist.Wire.Corrupt on an unknown opcode or a malformed
    operand. *)
