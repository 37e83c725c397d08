type transition_path = Fast_switch | Trap_roundtrip

let pp_transition_path fmt = function
  | Fast_switch -> Format.pp_print_string fmt "fast-switch"
  | Trap_roundtrip -> Format.pp_print_string fmt "trap-roundtrip"

type t = {
  backend_name : string;
  domain_created : Domain.t -> unit;
  domain_destroyed : Domain.t -> unit;
  apply_effect : Cap.Captree.effect -> (unit, string) result;
  validate_attach : Domain.t -> Cap.Resource.t -> (unit, string) result;
  transition :
    core:Hw.Cpu.t -> from_:Domain.t -> to_:Domain.t -> flush_microarch:bool ->
    (transition_path, string) result;
  launch : core:Hw.Cpu.t -> Domain.t -> unit;
  domain_reaches : Domain.t -> Hw.Addr.Range.t -> bool;
  domain_encrypted : Domain.t -> bool;
  txn_begin : unit -> unit;
  txn_commit : unit -> unit;
  txn_rollback : unit -> unit;
}

module Registry = struct
  type backend = t
  type 'a entry = { key : backend Weak.t; data : 'a Weak.t }
  type 'a t = 'a entry list ref

  let create () = ref []

  let weak v =
    let w = Weak.create 1 in
    Weak.set w 0 (Some v);
    w

  let add reg backend data =
    let live = List.filter (fun e -> Weak.check e.key 0) !reg in
    reg := { key = weak backend; data = weak data } :: live

  let find reg backend =
    List.find_map
      (fun e ->
        match Weak.get e.key 0 with
        | Some b when b == backend -> Weak.get e.data 0
        | _ -> None)
      !reg
end
