include Op

type response = (result_value, Monitor.error) result

let pp_response fmt = function
  | Ok R_unit -> Format.pp_print_string fmt "ok"
  | Ok (R_domain d) -> Format.fprintf fmt "ok domain #%d" d
  | Ok (R_cap c) -> Format.fprintf fmt "ok cap %d" c
  | Ok (R_cap_pair (a, b)) -> Format.fprintf fmt "ok caps (%d,%d)" a b
  | Ok (R_caps caps) -> Format.fprintf fmt "ok %d caps" (List.length caps)
  | Ok (R_attestation att) -> Format.fprintf fmt "ok attestation #%d" att.Attestation.domain
  | Ok (R_path p) -> Format.fprintf fmt "ok %a" Backend_intf.pp_transition_path p
  | Error e -> Format.fprintf fmt "error: %a" Monitor.pp_error e

(* One hoisted span handle per call variant: dispatching pays no string
   concatenation and no registry lookup, just the span itself. *)
let handles = Array.map (fun name -> Obs.Profile.handle ("api." ^ name)) names
let op_handle call = handles.(opcode call - 1)

(* The single choke point every monitor call funnels through, so one
   span here guarantees a balanced begin/end pair per operation: the
   error paths return values and the catch-all below converts the only
   escaping exceptions, while [Obs.Profile.span_h] itself is
   exception-safe for anything injected deeper down. *)
(* The backend name is the same physical string for the life of a
   monitor, so a one-entry cache turns per-dispatch interning into a
   pointer compare (the hashtable is only hit when replays alternate
   between backends). *)
let last_bk_name = ref ""
let last_bk_id = ref 0

let backend_id name =
  if name == !last_bk_name then !last_bk_id
  else begin
    let id = Obs.intern name in
    last_bk_name := name;
    last_bk_id := id;
    id
  end

let dispatch m ~caller ~core call : response =
  Obs.Profile.span_h ~domain:caller
    ~backend:(backend_id (Monitor.backend m).Backend_intf.backend_name)
    (op_handle call)
  @@ fun () ->
  try Monitor.exec m ~caller ~core call with
  | Invalid_argument msg -> Error (Monitor.Denied ("invalid argument: " ^ msg))
  | Failure msg -> Error (Monitor.Denied ("failure: " ^ msg))
