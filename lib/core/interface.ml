(* Modular interface descriptors.

   "Modular components need interfaces that abstract component behavior";
   each later step "imposes different requirements on the interfaces".
   A descriptor names the interface, its operations, the minimum safety
   level its contract supports, and — for ownership-safe interfaces — the
   explicit sharing contract per operation. *)

type op_descr = {
  op_name : string;
  sharing : Ownership.Contract.op option; (* required from Ownership_safe up *)
}

type t = {
  iface_name : string;
  version : int;
  supports : Level.t; (* highest roadmap step this interface can host *)
  ops : op_descr list;
}

let op ?sharing op_name = { op_name; sharing }

let v ~name ~version ~supports ops = { iface_name = name; version; supports; ops }

let find_op iface name = List.find_opt (fun o -> String.equal o.op_name name) iface.ops

(* An implementation written against [required] can be hosted by an
   interface [provided] when the interface is the same family, not older,
   and offers every operation. *)
let compatible ~provided ~required =
  String.equal provided.iface_name required.iface_name
  && provided.version >= required.version
  && List.for_all (fun o -> find_op provided o.op_name <> None) required.ops

(* The requirements of §3's Summary: what an interface must provide before
   a module behind it can reach the given level. *)
let admits iface level =
  Level.( >= ) iface.supports level
  &&
  match level with
  | Level.Unsafe | Level.Modular | Level.Type_safe -> true
  | Level.Ownership_safe | Level.Verified ->
      (* Ownership contracts must be explicit on every operation. *)
      List.for_all (fun o -> o.sharing <> None) iface.ops

(* The file-system interface every mounted FS in this kernel implements,
   with its explicit sharing contract: paths and data move into the
   callee by value semantics (modelled as shared borrows of the caller's
   buffers), buffers for results are exclusive-borrowed. *)
let fs_interface =
  let borrow name = (name, Ownership.Contract.Borrow_shared) in
  let borrow_mut name = (name, Ownership.Contract.Borrow_exclusive) in
  let sharing name params = Ownership.Contract.op ~name params in
  v ~name:"fs_ops" ~version:1 ~supports:Level.Verified
    [
      op "create" ~sharing:(sharing "create" [ borrow "path" ]);
      op "mkdir" ~sharing:(sharing "mkdir" [ borrow "path" ]);
      op "write" ~sharing:(sharing "write" [ borrow "path"; borrow "data" ]);
      op "read" ~sharing:(sharing "read" [ borrow "path"; borrow_mut "out" ]);
      op "truncate" ~sharing:(sharing "truncate" [ borrow "path" ]);
      op "unlink" ~sharing:(sharing "unlink" [ borrow "path" ]);
      op "rmdir" ~sharing:(sharing "rmdir" [ borrow "path" ]);
      op "rename" ~sharing:(sharing "rename" [ borrow "src"; borrow "dst" ]);
      op "readdir" ~sharing:(sharing "readdir" [ borrow "path" ]);
      op "stat" ~sharing:(sharing "stat" [ borrow "path" ]);
      op "fsync" ~sharing:(sharing "fsync" []);
    ]
