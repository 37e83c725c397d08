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
  | Enumerate
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

let pp_call fmt = function
  | Create_domain { name; kind } ->
    Format.fprintf fmt "create_domain(%s,%a)" name Domain.pp_kind kind
  | Set_entry_point { domain; entry } ->
    Format.fprintf fmt "set_entry_point(#%d,0x%x)" domain entry
  | Set_flush_policy { domain; flush } ->
    Format.fprintf fmt "set_flush_policy(#%d,%b)" domain flush
  | Mark_measured { domain; range } ->
    Format.fprintf fmt "mark_measured(#%d,%a)" domain Hw.Addr.Range.pp range
  | Seal { domain } -> Format.fprintf fmt "seal(#%d)" domain
  | Destroy { domain } -> Format.fprintf fmt "destroy(#%d)" domain
  | Share { cap; to_; _ } -> Format.fprintf fmt "share(cap%d -> #%d)" cap to_
  | Grant { cap; to_; _ } -> Format.fprintf fmt "grant(cap%d -> #%d)" cap to_
  | Split { cap; at } -> Format.fprintf fmt "split(cap%d @ 0x%x)" cap at
  | Carve { cap; subrange } ->
    Format.fprintf fmt "carve(cap%d, %a)" cap Hw.Addr.Range.pp subrange
  | Revoke { cap } -> Format.fprintf fmt "revoke(cap%d)" cap
  | Enumerate -> Format.pp_print_string fmt "enumerate"
  | Attest { domain; _ } -> Format.fprintf fmt "attest(#%d)" domain
  | Call { target } -> Format.fprintf fmt "call(#%d)" target
  | Return -> Format.pp_print_string fmt "return"

(* Wire format: opcode byte, then the operands in {!Persist.Wire}'s
   fixed-width encoding — ids and addresses one word each, ranges two,
   strings u32-length-prefixed, rights and cleanup policies one byte
   each. *)

module W = Persist.Wire

let opcode = function
  | Create_domain _ -> 1
  | Set_entry_point _ -> 2
  | Set_flush_policy _ -> 3
  | Mark_measured _ -> 4
  | Seal _ -> 5
  | Destroy _ -> 6
  | Share _ -> 7
  | Grant _ -> 8
  | Split _ -> 9
  | Carve _ -> 10
  | Revoke _ -> 11
  | Enumerate -> 12
  | Attest _ -> 13
  | Call _ -> 14
  | Return -> 15

let names =
  [| "create_domain"; "set_entry_point"; "set_flush_policy"; "mark_measured"; "seal";
     "destroy"; "share"; "grant"; "split"; "carve"; "revoke"; "enumerate"; "attest"; "call";
     "return" |]

let op_name call = names.(opcode call - 1)

let put_range b r =
  W.i64 b (Hw.Addr.Range.base r);
  W.i64 b (Hw.Addr.Range.len r)

let put_operands b = function
  | Create_domain { name; kind } ->
    W.u8 b (Domain.kind_to_int kind);
    W.str b name
  | Set_entry_point { domain; entry } ->
    W.i64 b domain;
    W.i64 b entry
  | Set_flush_policy { domain; flush } ->
    W.i64 b domain;
    W.bool_ b flush
  | Mark_measured { domain; range } ->
    W.i64 b domain;
    put_range b range
  | Seal { domain } | Destroy { domain } | Call { target = domain } -> W.i64 b domain
  | Share { cap; to_; rights; cleanup; subrange } ->
    W.i64 b cap;
    W.i64 b to_;
    W.u8 b (Cap.Rights.to_bits rights);
    W.u8 b (Cap.Revocation.to_int cleanup);
    (match subrange with
    | None -> W.bool_ b false
    | Some r ->
      W.bool_ b true;
      put_range b r)
  | Grant { cap; to_; rights; cleanup } ->
    W.i64 b cap;
    W.i64 b to_;
    W.u8 b (Cap.Rights.to_bits rights);
    W.u8 b (Cap.Revocation.to_int cleanup)
  | Split { cap; at } ->
    W.i64 b cap;
    W.i64 b at
  | Carve { cap; subrange } ->
    W.i64 b cap;
    put_range b subrange
  | Revoke { cap } -> W.i64 b cap
  | Attest { domain; nonce } ->
    W.i64 b domain;
    W.str b nonce
  | Enumerate | Return -> ()

let corrupt msg = raise (W.Corrupt msg)

(* Every operand is an id or an address: a negative one is malformed. *)
let nat r =
  let v = W.get_i64 r in
  if v < 0 then corrupt "negative operand" else v

let get_range r =
  let base = nat r in
  let len = nat r in
  if len = 0 then corrupt "empty range" else Hw.Addr.Range.make ~base ~len

let known what = function Some v -> v | None -> corrupt ("unknown " ^ what)
let get_rights r = known "rights bits" (Cap.Rights.of_bits (W.get_u8 r))
let get_cleanup r = known "cleanup policy" (Cap.Revocation.of_int (W.get_u8 r))

let get_operands r = function
  | 1 ->
    let kind = known "domain kind" (Domain.kind_of_int (W.get_u8 r)) in
    let name = W.get_str r in
    Create_domain { name; kind }
  | 2 ->
    let domain = nat r in
    let entry = nat r in
    Set_entry_point { domain; entry }
  | 3 ->
    let domain = nat r in
    let flush = W.get_bool r in
    Set_flush_policy { domain; flush }
  | 4 ->
    let domain = nat r in
    let range = get_range r in
    Mark_measured { domain; range }
  | 5 -> Seal { domain = nat r }
  | 6 -> Destroy { domain = nat r }
  | 7 ->
    let cap = nat r in
    let to_ = nat r in
    let rights = get_rights r in
    let cleanup = get_cleanup r in
    let subrange = if W.get_bool r then Some (get_range r) else None in
    Share { cap; to_; rights; cleanup; subrange }
  | 8 ->
    let cap = nat r in
    let to_ = nat r in
    let rights = get_rights r in
    let cleanup = get_cleanup r in
    Grant { cap; to_; rights; cleanup }
  | 9 ->
    let cap = nat r in
    let at = nat r in
    Split { cap; at }
  | 10 ->
    let cap = nat r in
    let subrange = get_range r in
    Carve { cap; subrange }
  | 11 -> Revoke { cap = nat r }
  | 12 -> Enumerate
  | 13 ->
    let domain = nat r in
    let nonce = W.get_str r in
    Attest { domain; nonce }
  | 14 -> Call { target = nat r }
  | 15 -> Return
  | n -> corrupt (Printf.sprintf "unknown opcode %d" n)

let encode call =
  let b = Buffer.create 32 in
  W.u8 b (opcode call);
  put_operands b call;
  Buffer.contents b

let decode s =
  match
    let r = W.reader s in
    let call = get_operands r (W.get_u8 r) in
    W.expect_end r;
    call
  with
  | call -> Ok call
  | exception W.Corrupt msg -> Error msg
