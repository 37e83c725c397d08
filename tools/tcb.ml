type entry = { lib : string; dir : string; lines : int }
type t = { trusted : entry list; simulated : entry list; total : int }

let roots = [ "tyche.backend-x86"; "tyche.backend-riscv" ]
let simulated_hw = [ "tyche.hw"; "tyche.rot" ]
let limit = 10_000

(* Just enough s-expression reading for dune files: atoms, quoted
   strings, parentheses and [;] comments. *)
type sexp = Atom of string | List of sexp list

let parse s =
  let n = String.length s in
  let rec items i acc =
    if i >= n then (List.rev acc, i)
    else
      match s.[i] with
      | ' ' | '\t' | '\n' | '\r' -> items (i + 1) acc
      | ';' -> (
        match String.index_from_opt s i '\n' with
        | Some j -> items (j + 1) acc
        | None -> (List.rev acc, n))
      | '(' ->
        let sub, j = items (i + 1) [] in
        items j (List sub :: acc)
      | ')' -> (List.rev acc, i + 1)
      | '"' ->
        let rec close j =
          if j >= n || (s.[j] = '"' && s.[j - 1] <> '\\') then j else close (j + 1)
        in
        let j = close (i + 1) in
        items (j + 1) (Atom (String.sub s (i + 1) (max 0 (j - i - 1))) :: acc)
      | _ ->
        let rec stop j =
          if j >= n then j
          else match s.[j] with ' ' | '\t' | '\n' | '\r' | '(' | ')' | ';' -> j | _ -> stop (j + 1)
        in
        let j = stop i in
        items j (Atom (String.sub s i (j - i)) :: acc)
  in
  fst (items 0 [])

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* (public name, directory, library dependencies) per library stanza. *)
let libraries ~root =
  let lib_root = Filename.concat root "lib" in
  Sys.readdir lib_root |> Array.to_list |> List.sort compare
  |> List.concat_map (fun sub ->
         let dir = Filename.concat "lib" sub in
         let dune = Filename.concat (Filename.concat root dir) "dune" in
         if not (Sys.file_exists dune) then []
         else
           List.filter_map
             (function
               | List (Atom "library" :: fields) ->
                 let field key =
                   List.find_map
                     (function List (Atom k :: v) when k = key -> Some v | _ -> None)
                     fields
                 in
                 let name =
                   match field "public_name", field "name" with
                   | Some [ Atom n ], _ | None, Some [ Atom n ] -> n
                   | _ -> dir
                 in
                 let deps =
                   match field "libraries" with
                   | Some l -> List.filter_map (function Atom a -> Some a | List _ -> None) l
                   | None -> []
                 in
                 Some (name, dir, deps)
               | _ -> None)
             (parse (read_file dune)))

let non_blank_lines path =
  In_channel.with_open_bin path In_channel.input_lines
  |> List.filter (fun l -> String.trim l <> "")
  |> List.length

let lines_in ~root dir =
  let full = Filename.concat root dir in
  Sys.readdir full |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli")
  |> List.fold_left (fun acc f -> acc + non_blank_lines (Filename.concat full f)) 0

let count ~root =
  let libs = libraries ~root in
  let rec close seen = function
    | [] -> seen
    | name :: rest when List.mem name seen -> close seen rest
    | name :: rest -> (
      match List.find_opt (fun (n, _, _) -> n = name) libs with
      | None -> close seen rest (* not ours: an external package *)
      | Some (_, _, deps) -> close (name :: seen) (deps @ rest))
  in
  let entries =
    close [] roots |> List.sort compare
    |> List.map (fun name ->
           let _, dir, _ = List.find (fun (n, _, _) -> n = name) libs in
           { lib = name; dir; lines = lines_in ~root dir })
  in
  let simulated, trusted = List.partition (fun e -> List.mem e.lib simulated_hw) entries in
  { trusted; simulated; total = List.fold_left (fun acc e -> acc + e.lines) 0 trusted }

let pp fmt t =
  let row e = Format.fprintf fmt "  %-22s %-20s %6d@\n" e.lib e.dir e.lines in
  Format.fprintf fmt "trusted core: link closure of %s@\n" (String.concat " + " roots);
  List.iter row t.trusted;
  Format.fprintf fmt "  %-43s %6d  -> %s@\n" "TRUSTED CORE" t.total
    (if t.total < limit then "< 10K LOC (claim C3 holds)" else ">= 10K LOC (claim C3 FAILS)");
  Format.fprintf fmt "simulated hardware (linked, not counted):@\n";
  List.iter row t.simulated
