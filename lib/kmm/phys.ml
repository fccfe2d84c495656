(* The physical frame allocator.

   Frames are reference-counted so address spaces can share them
   (copy-on-write after fork, read-only file pages); a frame returns to
   the free list, zeroed, when its last reference drops.  The conclusion
   calls for "cleaner APIs for kernel functions (such as a new network or
   virtual memory stack)" — this layer and [Addr_space] are that stack,
   built typed from the start. *)

type frame = int

type t = {
  page_size : int;
  nframes : int;
  frames : bytes array;
  refcount : int array;
  mutable free_list : frame list;
}

let create ~nframes ~page_size =
  if nframes <= 0 || page_size <= 0 then invalid_arg "Phys.create";
  {
    page_size;
    nframes;
    frames = Array.init nframes (fun _ -> Bytes.make page_size '\000');
    refcount = Array.make nframes 0;
    free_list = List.init nframes (fun i -> i);
  }

let page_size t = t.page_size
let free_frames t = List.length t.free_list

let alloc t =
  match t.free_list with
  | [] -> None
  | frame :: rest ->
      t.free_list <- rest;
      t.refcount.(frame) <- 1;
      Some frame

let check t frame =
  if frame < 0 || frame >= t.nframes then invalid_arg "Phys: bad frame";
  if t.refcount.(frame) = 0 then invalid_arg "Phys: dead frame"

let refcount t frame =
  if frame < 0 || frame >= t.nframes then invalid_arg "Phys: bad frame";
  t.refcount.(frame)

let incref t frame =
  check t frame;
  t.refcount.(frame) <- t.refcount.(frame) + 1

let decref t frame =
  check t frame;
  t.refcount.(frame) <- t.refcount.(frame) - 1;
  if t.refcount.(frame) = 0 then begin
    Bytes.fill t.frames.(frame) 0 t.page_size '\000';
    t.free_list <- frame :: t.free_list
  end

let read t frame ~off ~len =
  check t frame;
  if off < 0 || len < 0 || off + len > t.page_size then invalid_arg "Phys.read";
  Bytes.sub_string t.frames.(frame) off len

let write t frame ~off data =
  check t frame;
  if off < 0 || off + String.length data > t.page_size then invalid_arg "Phys.write";
  Bytes.blit_string data 0 t.frames.(frame) off (String.length data)

let copy t ~src ~dst =
  check t src;
  check t dst;
  Bytes.blit t.frames.(src) 0 t.frames.(dst) 0 t.page_size
