module W = Persist.Wire

type record =
  | Call of { caller : Domain.id; call : Op.call }
  | Transition of { core : int; call : Op.call }
  | Seal_digest of { caller : Domain.id; domain : Domain.id; measurement : string }
  | Timer_tick of { core : int }

(* Layout: the call's opcode, the principal (caller or core), then the
   call's operands. The two non-call records take opcodes past the
   call range. *)
let seal_digest_tag = 16
let timer_tick_tag = 17

let encode record =
  let b = Buffer.create 48 in
  (match record with
  | Call { caller = principal; call } | Transition { core = principal; call } ->
    W.u8 b (Op.opcode call);
    W.i64 b principal;
    Op.put_operands b call
  | Seal_digest { caller; domain; measurement } ->
    W.u8 b seal_digest_tag;
    W.i64 b caller;
    W.i64 b domain;
    W.str b measurement
  | Timer_tick { core } ->
    W.u8 b timer_tick_tag;
    W.i64 b core);
  Buffer.contents b

let decode s =
  let r = W.reader s in
  let record =
    match W.get_u8 r with
    | tag when tag = seal_digest_tag ->
      let caller = W.get_i64 r in
      let domain = W.get_i64 r in
      let measurement = W.get_str r in
      Seal_digest { caller; domain; measurement }
    | tag when tag = timer_tick_tag -> Timer_tick { core = W.get_i64 r }
    | opcode -> (
      let principal = W.get_i64 r in
      match Op.get_operands r opcode with
      | (Op.Call _ | Op.Return) as call -> Transition { core = principal; call }
      | call -> Call { caller = principal; call })
  in
  W.expect_end r;
  record

let pp fmt = function
  | Call { caller; call } -> Format.fprintf fmt "%a by #%d" Op.pp_call call caller
  | Transition { core; call } -> Format.fprintf fmt "%a on core %d" Op.pp_call call core
  | Seal_digest { caller; domain; _ } ->
    Format.fprintf fmt "seal(#%d) by #%d, recorded digest" domain caller
  | Timer_tick { core } -> Format.fprintf fmt "timer_tick(core %d)" core

let replay ~base_seq records apply =
  let rec go expected applied = function
    | [] -> (applied, None)
    | (seq, _) :: rest when seq <= base_seq -> go expected applied rest
    | (seq, payload) :: rest -> (
      if seq <> expected then
        (applied, Some (Printf.sprintf "sequence gap: expected %d, found %d" expected seq))
      else
        match decode payload with
        | exception W.Corrupt why ->
          (applied, Some (Printf.sprintf "undecodable record at seq %d: %s" seq why))
        | record -> (
          match apply record with
          | Ok () -> go (seq + 1) (applied + 1) rest
          | Error why ->
            (applied, Some (Format.asprintf "replay of %a (seq %d) failed: %s" pp record seq why))
          | exception e ->
            let why = Printexc.to_string e in
            (applied, Some (Printf.sprintf "replay raised at seq %d: %s" seq why))))
  in
  go (base_seq + 1) 0 records
