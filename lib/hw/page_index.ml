type 'k t = (int, 'k list) Hashtbl.t

let create n = Hashtbl.create n

let add t ~page k =
  Hashtbl.replace t page (k :: Option.value (Hashtbl.find_opt t page) ~default:[])

let remove t ~page k =
  match Hashtbl.find_opt t page with
  | None -> ()
  | Some ks -> (
    match List.filter (fun k' -> k' <> k) ks with
    | [] -> Hashtbl.remove t page
    | rest -> Hashtbl.replace t page rest)

let find t ~page = Option.value (Hashtbl.find_opt t page) ~default:[]
let pages = Hashtbl.length
let reset = Hashtbl.reset
