(* Dynamically typed values simulating C [void *] payloads.

   Linux interfaces such as VFS [write_begin]/[write_end] pass private data
   as void pointers and rely on the callee casting them back to the right
   type.  [Dyn] reproduces that idiom: a value is injected under a [Key] and
   can be projected back either checked ([project]) or "C-style"
   ([cast_exn]), which raises {!Type_confusion} on mismatch -- the runtime
   analogue of dereferencing a wrongly cast pointer. *)

exception
  Type_confusion of {
    expected : string;
    actual : string;
  }

exception Null_dereference

module Key = struct
  type 'a witness = ..

  module type S = sig
    type a
    type 'a witness += W : a witness
    val name : string
  end

  type 'a t = (module S with type a = 'a)

  let create (type v) ~name : v t =
    let module M = struct
      type a = v
      type 'a witness += W : a witness
      let name = name
    end in
    (module M)

  let name (type v) ((module M) : v t) = M.name
end

type t =
  | Null
  | Value : {
      key : 'a Key.t;
      value : 'a;
    }
      -> t

let null = Null

let is_null = function Null -> true | Value _ -> false

let inject key value = Value { key; value }

let tag_name = function
  | Null -> "NULL"
  | Value { key; _ } -> Key.name key

let project : type v. v Key.t -> t -> v option =
 fun (module M) dyn ->
  match dyn with
  | Null -> None
  | Value { key = (module K); value } -> (
      match K.W with M.W -> Some value | _ -> None)

let cast_exn : type v. v Key.t -> t -> v =
 fun ((module M) as key) dyn ->
  match dyn with
  | Null -> raise Null_dereference
  | Value { key = (module K); value } -> (
      match K.W with
      | M.W -> value
      | _ ->
          raise
            (Type_confusion { expected = Key.name key; actual = Key.name (module K) }))

module Errptr = struct
  (* The kernel encodes errors into pointer values: addresses in the last
     page ([-MAX_ERRNO..-1] as unsigned) are error codes, everything else is
     a valid pointer.  We mirror the convention with a sum that the "C"
     caller must remember to check via [is_err]. *)

  type nonrec t =
    | Ptr of t
    | Err of Errno.t

  let of_ptr dyn = Ptr dyn
  let of_err e = Err e
  let is_err = function Err _ -> true | Ptr _ -> false

  let ptr_err = function
    | Err e -> Errno.to_code e
    | Ptr _ -> 0

  let deref = function
    | Ptr dyn -> dyn
    | Err _ ->
        (* Dereferencing an error pointer is the classic kernel oops. *)
        raise Null_dereference

  let to_result = function
    | Ptr dyn -> Ok dyn
    | Err e -> Error e

  let pp ppf = function
    | Ptr dyn -> Fmt.pf ppf "ptr<%s>" (tag_name dyn)
    | Err e -> Fmt.pf ppf "ERR_PTR(-%d /* %a */)" (Errno.to_code e) Errno.pp e
end
