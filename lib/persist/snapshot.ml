type domain_spec = {
  d_id : int;
  d_name : string;
  d_kind : int;
  d_created_by : int;
  d_sealed : bool;
  d_entry : int;
  d_measured : (int * int) list;
  d_flush : bool;
  d_measurement : string;
}

type resource_spec =
  | Mem of { base : int; len : int }
  | Core of int
  | Dev of int

type node_spec = {
  n_id : int;
  n_resource : resource_spec;
  n_rights : int;
  n_owner : int;
  n_cleanup : int;
  n_parent : int;
  n_origin : int;
  n_state : int;
  n_children : int list;
}

type t = {
  seq : int;
  next_domain : int;
  next_cap : int;
  generation : int;
  domains : domain_spec list;
  nodes : node_spec list;
  current : int list;
  stacks : int list list;
}

(* Bumped (1 → 3; 2 is the manifest tag) when child lists left the
   node encoding: a version-1 record's trailing child bytes would
   misparse, so the newest-valid scan must skip old records outright —
   recovery then falls back to an older base plus WAL replay. *)
let version = 3

let enc_pair b (x, y) =
  Wire.i64 b x;
  Wire.i64 b y

let dec_pair r =
  let x = Wire.get_i64 r in
  let y = Wire.get_i64 r in
  (x, y)

let enc_domain b d =
  Wire.i64 b d.d_id;
  Wire.str b d.d_name;
  Wire.u8 b d.d_kind;
  Wire.i64 b d.d_created_by;
  Wire.bool_ b d.d_sealed;
  Wire.i64 b d.d_entry;
  Wire.list b enc_pair d.d_measured;
  Wire.bool_ b d.d_flush;
  Wire.str b d.d_measurement

let dec_domain r =
  let d_id = Wire.get_i64 r in
  let d_name = Wire.get_str r in
  let d_kind = Wire.get_u8 r in
  let d_created_by = Wire.get_i64 r in
  let d_sealed = Wire.get_bool r in
  let d_entry = Wire.get_i64 r in
  let d_measured = Wire.get_list r dec_pair in
  let d_flush = Wire.get_bool r in
  let d_measurement = Wire.get_str r in
  { d_id; d_name; d_kind; d_created_by; d_sealed; d_entry; d_measured; d_flush;
    d_measurement }

let enc_resource b = function
  | Mem { base; len } ->
    Wire.u8 b 0;
    Wire.i64 b base;
    Wire.i64 b len
  | Core c ->
    Wire.u8 b 1;
    Wire.i64 b c
  | Dev d ->
    Wire.u8 b 2;
    Wire.i64 b d

let dec_resource r =
  match Wire.get_u8 r with
  | 0 ->
    let base = Wire.get_i64 r in
    let len = Wire.get_i64 r in
    Mem { base; len }
  | 1 -> Core (Wire.get_i64 r)
  | 2 -> Dev (Wire.get_i64 r)
  | tag -> raise (Wire.Corrupt (Printf.sprintf "unknown resource tag %d" tag))

let enc_node b n =
  Wire.i64 b n.n_id;
  enc_resource b n.n_resource;
  Wire.u8 b n.n_rights;
  Wire.i64 b n.n_owner;
  Wire.u8 b n.n_cleanup;
  Wire.i64 b n.n_parent;
  Wire.u8 b n.n_origin;
  Wire.u8 b n.n_state
(* n_children is deliberately NOT serialized: the lists are fully
   determined by the parent pointers (ids ascend with creation time
   and live lists are most-recent-first), and a hub node — a root cap
   with thousands of shares hanging off it — would otherwise drag its
   whole child list into every segment re-serialization, making the
   "one dirty bucket" checkpoint O(tree). The restore path rebuilds
   them with one ascending scan. *)

let dec_node r =
  let n_id = Wire.get_i64 r in
  let n_resource = dec_resource r in
  let n_rights = Wire.get_u8 r in
  if n_rights lsr 5 <> 0 then raise (Wire.Corrupt "bad rights bits");
  let n_owner = Wire.get_i64 r in
  let n_cleanup = Wire.get_u8 r in
  let n_parent = Wire.get_i64 r in
  let n_origin = Wire.get_u8 r in
  let n_state = Wire.get_u8 r in
  { n_id; n_resource; n_rights; n_owner; n_cleanup; n_parent; n_origin; n_state;
    n_children = [] }

let encode t =
  let b = Buffer.create 4096 in
  Wire.u8 b version;
  Wire.i64 b t.seq;
  Wire.i64 b t.next_domain;
  Wire.i64 b t.next_cap;
  Wire.i64 b t.generation;
  Wire.list b enc_domain t.domains;
  Wire.list b enc_node t.nodes;
  Wire.list b Wire.i64 t.current;
  Wire.list b (fun b s -> Wire.list b Wire.i64 s) t.stacks;
  Buffer.contents b

let decode s =
  let r = Wire.reader s in
  (match Wire.get_u8 r with
  | v when v = version -> ()
  | v -> raise (Wire.Corrupt (Printf.sprintf "unknown snapshot version %d" v)));
  let seq = Wire.get_i64 r in
  let next_domain = Wire.get_i64 r in
  let next_cap = Wire.get_i64 r in
  let generation = Wire.get_i64 r in
  let domains = Wire.get_list r dec_domain in
  let nodes = Wire.get_list r dec_node in
  let current = Wire.get_list r Wire.get_i64 in
  let stacks = Wire.get_list r (fun r -> Wire.get_list r Wire.get_i64) in
  Wire.expect_end r;
  { seq; next_domain; next_cap; generation; domains; nodes; current; stacks }

let write store t =
  Wal.append store ~blob:Store.snap_blob ~seq:t.seq (encode t);
  Store.fsync store Store.snap_blob

(* --- incremental manifests + content-addressed segments ------------- *)

type manifest = {
  m_seq : int;
  m_next_domain : int;
  m_next_cap : int;
  m_generation : int;
  m_domains : domain_spec list;
  m_current : int list;
  m_stacks : int list list;
  m_span : int;
  m_segments : (int * string) list;
}

let manifest_version = 2

let encode_manifest m =
  let b = Buffer.create 1024 in
  Wire.u8 b manifest_version;
  Wire.i64 b m.m_seq;
  Wire.i64 b m.m_next_domain;
  Wire.i64 b m.m_next_cap;
  Wire.i64 b m.m_generation;
  Wire.list b enc_domain m.m_domains;
  Wire.list b Wire.i64 m.m_current;
  Wire.list b (fun b s -> Wire.list b Wire.i64 s) m.m_stacks;
  Wire.i64 b m.m_span;
  Wire.list b
    (fun b (bucket, h) ->
      Wire.i64 b bucket;
      Wire.str b h)
    m.m_segments;
  Buffer.contents b

let decode_manifest r =
  let m_seq = Wire.get_i64 r in
  let m_next_domain = Wire.get_i64 r in
  let m_next_cap = Wire.get_i64 r in
  let m_generation = Wire.get_i64 r in
  let m_domains = Wire.get_list r dec_domain in
  let m_current = Wire.get_list r Wire.get_i64 in
  let m_stacks = Wire.get_list r (fun r -> Wire.get_list r Wire.get_i64) in
  let m_span = Wire.get_i64 r in
  let m_segments =
    Wire.get_list r (fun r ->
        let bucket = Wire.get_i64 r in
        let h = Wire.get_str r in
        (bucket, h))
  in
  Wire.expect_end r;
  { m_seq; m_next_domain; m_next_cap; m_generation; m_domains; m_current; m_stacks;
    m_span; m_segments }

type record_kind = Full of t | Incremental of manifest

let decode_any s =
  let r = Wire.reader s in
  match Wire.get_u8 r with
  | v when v = version ->
    let seq = Wire.get_i64 r in
    let next_domain = Wire.get_i64 r in
    let next_cap = Wire.get_i64 r in
    let generation = Wire.get_i64 r in
    let domains = Wire.get_list r dec_domain in
    let nodes = Wire.get_list r dec_node in
    let current = Wire.get_list r Wire.get_i64 in
    let stacks = Wire.get_list r (fun r -> Wire.get_list r Wire.get_i64) in
    Wire.expect_end r;
    Full { seq; next_domain; next_cap; generation; domains; nodes; current; stacks }
  | v when v = manifest_version -> Incremental (decode_manifest r)
  | v -> raise (Wire.Corrupt (Printf.sprintf "unknown snapshot version %d" v))

(* A segment record's payload is [raw sha256 ^ encoded node list]; the
   hash is both the integrity check and the content address manifests
   reference, so identical bucket contents dedup across checkpoints. *)
let seg_encode nodes =
  let b = Buffer.create 512 in
  Wire.list b enc_node nodes;
  let body = Buffer.contents b in
  let h = Crypto.Sha256.(to_raw (string body)) in
  (h, h ^ body)

let seg_decode payload =
  if String.length payload < 32 then None
  else
    let h = String.sub payload 0 32 in
    let body = String.sub payload 32 (String.length payload - 32) in
    if Crypto.Sha256.(to_raw (string body)) <> h then None
    else
      match
        let r = Wire.reader body in
        let nodes = Wire.get_list r dec_node in
        Wire.expect_end r;
        nodes
      with
      | nodes -> Some (h, nodes)
      | exception Wire.Corrupt _ -> None

(* Content-addressed envelope for opaque bytes — the same [raw sha256 ^
   body] shape as captree segments, but carrying arbitrary payloads
   (live migration ships a domain's memory pages this way). Pure codec:
   callers pick the blob, so these never collide with the checkpoint
   segment GC. *)
let export_blob body =
  let h = Crypto.Sha256.(to_raw (string body)) in
  (h, h ^ body)

let import_blob payload =
  if String.length payload < 32 then None
  else
    let h = String.sub payload 0 32 in
    let body = String.sub payload 32 (String.length payload - 32) in
    if Crypto.Sha256.(to_raw (string body)) <> h then None else Some (h, body)

let append_segment store ~bucket payload =
  Wal.append store ~blob:Store.seg_blob ~seq:bucket payload

let fsync_segments store = Store.fsync store Store.seg_blob

let segment_index store =
  let { Wal.records; _ } = Wal.read store ~blob:Store.seg_blob in
  let idx = Hashtbl.create 64 in
  List.iter
    (fun (_seq, payload) ->
      match seg_decode payload with
      | Some (h, nodes) -> if not (Hashtbl.mem idx h) then Hashtbl.replace idx h nodes
      | None -> ())
    records;
  idx

let gc_segments store ~live =
  let { Wal.records; _ } = Wal.read store ~blob:Store.seg_blob in
  let seen = Hashtbl.create 16 in
  let keep =
    List.filter
      (fun (_seq, payload) ->
        match seg_decode payload with
        | Some (h, _) when live h && not (Hashtbl.mem seen h) ->
          Hashtbl.replace seen h ();
          true
        | _ -> false)
      records
  in
  let n_keep = List.length keep and n_all = List.length records in
  if n_keep < n_all then begin
    let b = Buffer.create 4096 in
    List.iter
      (fun (seq, payload) -> Buffer.add_string b (Wal.frame ~seq payload))
      keep;
    Store.replace store Store.seg_blob (Buffer.contents b)
  end;
  (n_keep, n_all - n_keep)

(* A manifest swap is the commit point of an incremental checkpoint: the
   fault models power loss mid-append, leaving a deterministic torn
   prefix of the frame on the medium. Recovery's newest-decodable-wins
   scan skips the torn record and falls back to the previous snapshot
   plus a longer WAL suffix. *)
let p_manifest_swap = Fault.register "manifest.swap"

let write_manifest store m =
  let payload = encode_manifest m in
  if Fault.fires p_manifest_swap then begin
    let framed = Wal.frame ~seq:m.m_seq payload in
    let keep = Store.torn_len ~bytes:framed ~trip:(Fault.trips p_manifest_swap) in
    Store.append store Store.snap_blob (String.sub framed 0 keep);
    Store.fsync store Store.snap_blob;
    (* The rest of the device's write cache dies with the power. *)
    Store.power_fail store;
    raise (Store.Crash (Fault.name p_manifest_swap))
  end;
  Wal.append store ~blob:Store.snap_blob ~seq:m.m_seq payload;
  Store.fsync store Store.snap_blob

let materialize idx m =
  let nodes =
    List.concat_map
      (fun (_bucket, h) ->
        match Hashtbl.find_opt idx h with
        | Some nodes -> nodes
        | None -> raise (Wire.Corrupt "manifest references a missing segment"))
      m.m_segments
  in
  {
    seq = m.m_seq;
    next_domain = m.m_next_domain;
    next_cap = m.m_next_cap;
    generation = m.m_generation;
    domains = m.m_domains;
    nodes;
    current = m.m_current;
    stacks = m.m_stacks;
  }

type loaded = {
  snapshot : t option;
  scanned : int;
  torn : bool;
  manifest_segments : (int * string) list;
}

let load_latest_ex store =
  let { Wal.records; truncated; _ } = Wal.read store ~blob:Store.snap_blob in
  let idx = lazy (segment_index store) in
  (* Newest decodable wins: walk newest-first, skipping entries whose
     body decodes badly (version skew, post-CRC corruption) or whose
     manifest references segments the segment blob no longer carries. *)
  let rec pick skipped = function
    | [] -> (None, [], skipped)
    | (_, payload) :: older -> (
      match decode_any payload with
      | Full snap -> (Some snap, [], skipped)
      | Incremental m -> (
        match materialize (Lazy.force idx) m with
        | snap -> (Some snap, m.m_segments, skipped)
        | exception Wire.Corrupt _ -> pick (skipped + 1) older)
      | exception Wire.Corrupt _ -> pick (skipped + 1) older)
  in
  let snap, segs, skipped = pick 0 (List.rev records) in
  {
    snapshot = snap;
    scanned = List.length records;
    torn = truncated || skipped > 0;
    manifest_segments = segs;
  }

let load_latest store =
  let l = load_latest_ex store in
  (l.snapshot, l.scanned, l.torn)
