(* Address spaces: vmas, demand paging, copy-on-write fork.

   The software MMU: [read]/[write] walk pages and fault them in on
   demand — anonymous pages arrive zeroed, file-backed pages are filled
   from the VFS through the modular interface, and a write to a shared
   frame breaks copy-on-write.  All file mappings are private (MAP_PRIVATE):
   stores never reach the file, like the common case in real programs. *)

type prot = {
  pr_read : bool;
  pr_write : bool;
}

let prot_rw = { pr_read = true; pr_write = true }
let prot_ro = { pr_read = true; pr_write = false }

type backing =
  | Anon
  | File of {
      inst : Kvfs.Iface.instance;
      path : Kspec.Fs_spec.path;
      offset : int; (* byte offset of the mapping's first page *)
    }

type vma = {
  va_start : int; (* page-aligned byte address *)
  va_pages : int;
  mutable vprot : prot;
  vbacking : backing;
}

let vma_end vma page_size = vma.va_start + (vma.va_pages * page_size)

type page = {
  mutable frame : Phys.frame;
  mutable cow : bool;
}

type stats = {
  mutable minor_faults : int; (* anon zero-fill *)
  mutable file_faults : int; (* filled from the VFS *)
  mutable cow_breaks : int;
}

type t = {
  phys : Phys.t;
  mutable vmas : vma list; (* sorted by va_start *)
  pages : (int, page) Hashtbl.t; (* vpn -> page *)
  stats : stats;
  mutable next_mmap : int; (* search hint for address assignment *)
}

let mmap_base = 0x10000

let create phys =
  {
    phys;
    vmas = [];
    pages = Hashtbl.create 64;
    stats = { minor_faults = 0; file_faults = 0; cow_breaks = 0 };
    next_mmap = mmap_base;
  }

let page_size t = Phys.page_size t.phys
let stats t = t.stats
let resident_pages t = Hashtbl.length t.pages

let find_vma t addr =
  List.find_opt
    (fun vma -> addr >= vma.va_start && addr < vma_end vma (page_size t))
    t.vmas

let overlaps t start pages =
  let psz = page_size t in
  let fin = start + (pages * psz) in
  List.exists (fun vma -> start < vma_end vma psz && vma.va_start < fin) t.vmas

(* First-fit search for a free virtual range. *)
let pick_address t pages =
  let psz = page_size t in
  let rec go candidate =
    if overlaps t candidate pages then
      let next =
        List.fold_left
          (fun acc vma ->
            if candidate < vma_end vma psz && vma.va_start < candidate + (pages * psz) then
              max acc (vma_end vma psz)
            else acc)
          (candidate + psz) t.vmas
      in
      go next
    else candidate
  in
  go t.next_mmap

let mmap t ?addr ~len ~prot backing =
  let psz = page_size t in
  if len <= 0 then Error Ksim.Errno.EINVAL
  else
    let pages = (len + psz - 1) / psz in
    match addr with
    | Some a when a mod psz <> 0 || a < 0 -> Error Ksim.Errno.EINVAL
    | Some a when overlaps t a pages -> Error Ksim.Errno.EEXIST
    | _ ->
        let start = match addr with Some a -> a | None -> pick_address t pages in
        let vma = { va_start = start; va_pages = pages; vprot = prot; vbacking = backing } in
        t.vmas <-
          List.sort (fun a b -> compare a.va_start b.va_start) (vma :: t.vmas);
        t.next_mmap <- max t.next_mmap (vma_end vma psz);
        Ok start

let drop_page t vpn =
  match Hashtbl.find_opt t.pages vpn with
  | Some page ->
      Phys.decref t.phys page.frame;
      Hashtbl.remove t.pages vpn
  | None -> ()

let munmap t ~addr =
  match List.find_opt (fun vma -> vma.va_start = addr) t.vmas with
  | None -> Error Ksim.Errno.EINVAL
  | Some vma ->
      let psz = page_size t in
      for vpn = addr / psz to (vma_end vma psz / psz) - 1 do
        drop_page t vpn
      done;
      t.vmas <- List.filter (fun v -> v != vma) t.vmas;
      Ok ()

let mprotect t ~addr prot =
  match List.find_opt (fun vma -> vma.va_start = addr) t.vmas with
  | None -> Error Ksim.Errno.EINVAL
  | Some vma ->
      vma.vprot <- prot;
      Ok ()

(* Demand paging --------------------------------------------------------- *)

let fill_from_file t vma frame vpn =
  let psz = page_size t in
  match vma.vbacking with
  | Anon -> ()
  | File { inst; path; offset } -> (
      let page_off = ((vpn * psz) - vma.va_start) + offset in
      match
        Kvfs.Iface.instance_apply inst
          (Kspec.Fs_spec.Read { file = path; off = page_off; len = psz })
      with
      | Ok (Kspec.Fs_spec.Data data) -> Phys.write t.phys frame ~off:0 data
      | Ok _ | Error _ -> () (* missing file data reads as zeros, like mmap past EOF *))

let fault_in t vma vpn =
  match Hashtbl.find_opt t.pages vpn with
  | Some page -> Ok page
  | None -> (
      match Phys.alloc t.phys with
      | None -> Error Ksim.Errno.ENOMEM
      | Some frame ->
          (match vma.vbacking with
          | Anon -> t.stats.minor_faults <- t.stats.minor_faults + 1
          | File _ ->
              t.stats.file_faults <- t.stats.file_faults + 1;
              fill_from_file t vma frame vpn);
          let page = { frame; cow = false } in
          Hashtbl.replace t.pages vpn page;
          Ok page)

let break_cow t page =
  if page.cow then
    if Phys.refcount t.phys page.frame = 1 then begin
      page.cow <- false;
      Ok ()
    end
    else
      match Phys.alloc t.phys with
      | None -> Error Ksim.Errno.ENOMEM
      | Some fresh ->
          Phys.copy t.phys ~src:page.frame ~dst:fresh;
          Phys.decref t.phys page.frame;
          page.frame <- fresh;
          page.cow <- false;
          t.stats.cow_breaks <- t.stats.cow_breaks + 1;
          Ok ()
  else Ok ()

(* The software MMU: split [addr, addr+len) into per-page spans and apply
   [f page ~off ~len] to each. *)
let walk t ~addr ~len ~write f =
  let psz = page_size t in
  if len < 0 || addr < 0 then Error Ksim.Errno.EINVAL
  else begin
    let rec go cursor remaining acc =
      if remaining = 0 then Ok (List.rev acc)
      else
        match find_vma t cursor with
        | None -> Error Ksim.Errno.EFAULT
        | Some vma ->
            if (write && not vma.vprot.pr_write) || ((not write) && not vma.vprot.pr_read)
            then Error Ksim.Errno.EFAULT
            else (
              match fault_in t vma (cursor / psz) with
              | Error e -> Error e
              | Ok page -> (
                  let continue page =
                    let off = cursor mod psz in
                    let span = min remaining (psz - off) in
                    let piece = f page ~off ~len:span in
                    go (cursor + span) (remaining - span) (piece :: acc)
                  in
                  if write then
                    match break_cow t page with
                    | Error e -> Error e
                    | Ok () -> continue page
                  else continue page))
    in
    go addr len []
  end

let read t ~addr ~len =
  Result.map (String.concat "")
    (walk t ~addr ~len ~write:false (fun page ~off ~len ->
         Phys.read t.phys page.frame ~off ~len))

let write t ~addr data =
  let cursor = ref 0 in
  Result.map
    (fun (_ : unit list) -> ())
    (walk t ~addr ~len:(String.length data) ~write:true (fun page ~off ~len ->
         Phys.write t.phys page.frame ~off (String.sub data !cursor len);
         cursor := !cursor + len))

(* fork: share every resident frame copy-on-write. ------------------------ *)

let fork t =
  let child =
    {
      phys = t.phys;
      vmas = List.map (fun vma -> { vma with va_start = vma.va_start }) t.vmas;
      pages = Hashtbl.create (Hashtbl.length t.pages);
      stats = { minor_faults = 0; file_faults = 0; cow_breaks = 0 };
      next_mmap = t.next_mmap;
    }
  in
  Hashtbl.iter
    (fun vpn (page : page) ->
      Phys.incref t.phys page.frame;
      page.cow <- true;
      Hashtbl.replace child.pages vpn { frame = page.frame; cow = true })
    t.pages;
  child

let destroy t =
  Hashtbl.iter (fun _ page -> Phys.decref t.phys page.frame) t.pages;
  Hashtbl.reset t.pages;
  t.vmas <- []
