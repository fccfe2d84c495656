(* Abstract file-system specification.

   Exactly the model the paper sketches: "a file system can be modeled as a
   map from path strings to file content bytes", with directory rename as a
   relation that substitutes a prefix in every key.  The state is an
   immutable map; [step] is a pure function; the crash-safe variant keeps a
   durable and a volatile copy and guarantees recovery to the last synced
   version. *)

type path = string list

let path_of_string s =
  String.split_on_char '/' s |> List.filter (fun c -> not (String.equal c ""))

let path_to_string = function
  | [] -> "/"
  | comps -> "/" ^ String.concat "/" comps

let pp_path ppf p = Fmt.string ppf (path_to_string p)

let rec is_prefix prefix path =
  match (prefix, path) with
  | [], _ -> true
  | p :: prefix', q :: path' -> String.equal p q && is_prefix prefix' path'
  | _ :: _, [] -> false

let rec strip_prefix prefix path =
  match (prefix, path) with
  | [], rest -> Some rest
  | p :: prefix', q :: path' when String.equal p q -> strip_prefix prefix' path'
  | _ -> None

let parent path =
  match List.rev path with [] -> None | _ :: rev_init -> Some (List.rev rev_init)

let basename path = match List.rev path with [] -> None | last :: _ -> Some last

(* The same order as polymorphic [compare], without its generic walk. *)
let compare_path = List.compare String.compare

module Pathmap = Map.Make (struct
  type t = path

  let compare = compare_path
end)

type node =
  | File of string (* immutable content; string for structural equality *)
  | Dir

type state = node Pathmap.t
(* Invariant (checked by [wf]): the parent of every bound path is bound to
   [Dir]; the root [[]] is implicitly a directory and never bound. *)

let empty : state = Pathmap.empty

let equal_node a b =
  match (a, b) with
  | File c1, File c2 -> String.equal c1 c2
  | Dir, Dir -> true
  | File _, Dir | Dir, File _ -> false

let equal (a : state) b = Pathmap.equal equal_node a b

type bindings = (path * node) list

let of_bindings (b : bindings) : state =
  List.fold_left (fun acc (path, node) -> Pathmap.add path node acc) empty b

let rec increasing = function
  | (p, _) :: ((q, _) :: _ as rest) -> compare_path p q < 0 && increasing rest
  | _ -> true

exception Differ

(* Zip [b] against [s] in key order with early exit.  A strictly
   increasing [b] that differs lists another state, so only a [b] out of
   order or repeating a path is built. *)
let equal_bindings (s : state) b =
  (match
     Pathmap.fold
       (fun p n -> function
         | (q, m) :: rest when compare_path p q = 0 && equal_node n m -> rest
         | _ -> raise_notrace Differ)
       s b
   with
  | [] -> true
  | _ :: _ | (exception Differ) -> false)
  || ((not (increasing b)) && equal s (of_bindings b))

let pp_node ppf = function
  | File content -> Fmt.pf ppf "file[%d bytes]" (String.length content)
  | Dir -> Fmt.string ppf "dir"

let pp ppf (st : state) =
  Fmt.pf ppf "@[<v>";
  Pathmap.iter (fun p n -> Fmt.pf ppf "%a -> %a@ " pp_path p pp_node n) st;
  Fmt.pf ppf "@]"

let is_dir st path =
  match path with [] -> true | _ -> (match Pathmap.find_opt path st with Some Dir -> true | _ -> false)

let lookup st path = Pathmap.find_opt path st

let wf (st : state) =
  Pathmap.for_all
    (fun path _ ->
      match parent path with
      | None -> false (* root must not be bound *)
      | Some p -> is_dir st p)
    st

(* Operations ----------------------------------------------------------- *)

type op =
  | Create of path
  | Mkdir of path
  | Write of { file : path; off : int; data : string }
  | Read of { file : path; off : int; len : int }
  | Truncate of path * int
  | Unlink of path
  | Rmdir of path
  | Rename of path * path
  | Readdir of path
  | Stat of path
  | Fsync

type value =
  | Unit
  | Data of string
  | Names of string list
  | Attr of { kind : [ `File | `Dir ]; size : int }

type result = (value, Ksim.Errno.t) Stdlib.result

let pp_value ppf = function
  | Unit -> Fmt.string ppf "()"
  | Data s -> Fmt.pf ppf "data[%d]" (String.length s)
  | Names ns -> Fmt.pf ppf "[%a]" (Fmt.list ~sep:(Fmt.any "; ") Fmt.string) ns
  | Attr { kind; size } ->
      Fmt.pf ppf "attr(%s, %d)" (match kind with `File -> "file" | `Dir -> "dir") size

let equal_value a b =
  match (a, b) with
  | Unit, Unit -> true
  | Data x, Data y -> String.equal x y
  | Names x, Names y -> List.equal String.equal x y
  | Attr a, Attr b -> a.kind = b.kind && a.size = b.size
  | (Unit | Data _ | Names _ | Attr _), _ -> false

let equal_result (a : result) (b : result) =
  match (a, b) with
  | Ok x, Ok y -> equal_value x y
  | Error x, Error y -> Ksim.Errno.equal x y
  | Ok _, Error _ | Error _, Ok _ -> false

let pp_op ppf = function
  | Create p -> Fmt.pf ppf "create %a" pp_path p
  | Mkdir p -> Fmt.pf ppf "mkdir %a" pp_path p
  | Write { file; off; data } ->
      Fmt.pf ppf "write %a off=%d len=%d" pp_path file off (String.length data)
  | Read { file; off; len } -> Fmt.pf ppf "read %a off=%d len=%d" pp_path file off len
  | Truncate (p, n) -> Fmt.pf ppf "truncate %a %d" pp_path p n
  | Unlink p -> Fmt.pf ppf "unlink %a" pp_path p
  | Rmdir p -> Fmt.pf ppf "rmdir %a" pp_path p
  | Rename (p, q) -> Fmt.pf ppf "rename %a %a" pp_path p pp_path q
  | Readdir p -> Fmt.pf ppf "readdir %a" pp_path p
  | Stat p -> Fmt.pf ppf "stat %a" pp_path p
  | Fsync -> Fmt.string ppf "fsync"

let pp_result = Ksim.Errno.pp_result pp_value

(* Helpers --------------------------------------------------------------- *)

let parent_ready st path =
  match parent path with
  | None -> Error Ksim.Errno.EINVAL (* operating on the root *)
  | Some p -> if is_dir st p then Ok p else Error Ksim.Errno.ENOENT

let children st dir =
  Pathmap.fold
    (fun path _ acc ->
      match strip_prefix dir path with Some [ name ] -> name :: acc | Some _ | None -> acc)
    st []
  |> List.sort String.compare

let write_at content ~off ~data =
  (* Extend with zero bytes on a sparse write, then splice. *)
  let needed = off + String.length data in
  let base =
    if String.length content >= needed then content
    else content ^ String.make (needed - String.length content) '\000'
  in
  String.concat ""
    [
      String.sub base 0 off;
      data;
      (if String.length base > needed then String.sub base needed (String.length base - needed)
       else "");
    ]

let read_at content ~off ~len =
  let size = String.length content in
  if off >= size then "" else String.sub content off (min len (size - off))

(* The step function ------------------------------------------------------ *)

let step (st : state) (op : op) : state * result =
  let err e = (st, Error e) in
  match op with
  | Create path -> (
      match parent_ready st path with
      | Error e -> err e
      | Ok _ -> (
          match lookup st path with
          | Some _ -> err Ksim.Errno.EEXIST
          | None -> (Pathmap.add path (File "") st, Ok Unit)))
  | Mkdir path -> (
      match parent_ready st path with
      | Error e -> err e
      | Ok _ -> (
          match lookup st path with
          | Some _ -> err Ksim.Errno.EEXIST
          | None -> (Pathmap.add path Dir st, Ok Unit)))
  | Write { file; off; data } -> (
      if off < 0 then err Ksim.Errno.EINVAL
      else
        match lookup st file with
        | Some (File content) ->
            (Pathmap.add file (File (write_at content ~off ~data)) st, Ok Unit)
        | Some Dir -> err Ksim.Errno.EISDIR
        | None -> if is_dir st file then err Ksim.Errno.EISDIR else err Ksim.Errno.ENOENT)
  | Read { file; off; len } -> (
      if off < 0 || len < 0 then err Ksim.Errno.EINVAL
      else
        match lookup st file with
        | Some (File content) -> (st, Ok (Data (read_at content ~off ~len)))
        | Some Dir -> err Ksim.Errno.EISDIR
        | None -> if is_dir st file then err Ksim.Errno.EISDIR else err Ksim.Errno.ENOENT)
  | Truncate (path, size) -> (
      if size < 0 then err Ksim.Errno.EINVAL
      else
        match lookup st path with
        | Some (File content) ->
            let content' =
              if String.length content >= size then String.sub content 0 size
              else content ^ String.make (size - String.length content) '\000'
            in
            (Pathmap.add path (File content') st, Ok Unit)
        | Some Dir -> err Ksim.Errno.EISDIR
        | None -> if is_dir st path then err Ksim.Errno.EISDIR else err Ksim.Errno.ENOENT)
  | Unlink path -> (
      match lookup st path with
      | Some (File _) -> (Pathmap.remove path st, Ok Unit)
      | Some Dir -> err Ksim.Errno.EISDIR
      | None -> if is_dir st path then err Ksim.Errno.EISDIR else err Ksim.Errno.ENOENT)
  | Rmdir path -> (
      match lookup st path with
      | Some Dir ->
          if children st path = [] then (Pathmap.remove path st, Ok Unit)
          else err Ksim.Errno.ENOTEMPTY
      | Some (File _) -> err Ksim.Errno.ENOTDIR
      | None -> if path = [] then err Ksim.Errno.EBUSY else err Ksim.Errno.ENOENT)
  | Rename (src, dst) -> (
      (* The paper's example relation: every path key with prefix [src] is
         substituted with prefix [dst]. *)
      match lookup st src with
      | None -> err Ksim.Errno.ENOENT
      | Some src_node -> (
          if src = [] || dst = [] then err Ksim.Errno.EINVAL
          else if is_prefix src dst && src <> dst then
            (* Moving a directory into its own subtree. *)
            err Ksim.Errno.EINVAL
          else
            match parent_ready st dst with
            | Error e -> err e
            | Ok _ -> (
                let dst_node = lookup st dst in
                let clash =
                  match (src_node, dst_node) with
                  | _, None -> Ok ()
                  | File _, Some (File _) -> Ok ()
                  | File _, Some Dir -> Error Ksim.Errno.EISDIR
                  | Dir, Some (File _) -> Error Ksim.Errno.ENOTDIR
                  | Dir, Some Dir ->
                      if children st dst = [] then Ok () else Error Ksim.Errno.ENOTEMPTY
                in
                match clash with
                | Error e -> err e
                | Ok () ->
                    if src = dst then (st, Ok Unit)
                    else
                      let st' =
                        Pathmap.fold
                          (fun path node acc ->
                            match strip_prefix src path with
                            | Some suffix -> Pathmap.add (dst @ suffix) node acc
                            | None ->
                                if is_prefix dst path then acc (* overwritten target *)
                                else Pathmap.add path node acc)
                          st Pathmap.empty
                      in
                      (st', Ok Unit))))
  | Readdir path ->
      if is_dir st path then (st, Ok (Names (children st path)))
      else if Pathmap.mem path st then err Ksim.Errno.ENOTDIR
      else err Ksim.Errno.ENOENT
  | Stat path -> (
      match lookup st path with
      | Some (File content) -> (st, Ok (Attr { kind = `File; size = String.length content }))
      | Some Dir -> (st, Ok (Attr { kind = `Dir; size = 0 }))
      | None ->
          if path = [] then (st, Ok (Attr { kind = `Dir; size = 0 }))
          else err Ksim.Errno.ENOENT)
  | Fsync -> (st, Ok Unit)

(* Crash-safe specification ---------------------------------------------- *)

module Crash_safe = struct
  type cstate = {
    durable : state;
    volatile : state;
  }

  let init = { durable = empty; volatile = empty }

  let step c op =
    let volatile', res = step c.volatile op in
    match op with
    | Fsync -> ({ durable = volatile'; volatile = volatile' }, res)
    | _ -> ({ c with volatile = volatile' }, res)

  let crash c = { durable = c.durable; volatile = c.durable }

  (* A recovered state [s] is allowed after executing [ops] iff it equals
     the volatile spec state after some prefix that extends the last fsync:
     the file system may persist more than was synced (background commits),
     but never less, and never a state that no prefix of the history
     produced. *)
  let allowed_recoveries ops =
    let states, _, _ = Model.run_trace step init ops in
    let last_fsync =
      let rec find i acc = function
        | [] -> acc
        | Fsync :: rest -> find (i + 1) (i + 1) rest
        | _ :: rest -> find (i + 1) acc rest
      in
      find 0 0 ops
    in
    List.filteri (fun i _ -> i >= last_fsync) states |> List.map (fun c -> c.volatile)

  let is_allowed_recovery ops recovered =
    List.exists (fun s -> equal s recovered) (allowed_recoveries ops)
end
