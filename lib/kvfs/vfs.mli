(** The VFS: a mount table dispatching operations to mounted file systems
    strictly through the modular {!Iface.FS_OPS} interface (roadmap
    step 1).  The dispatch cost relative to a direct call is measured by
    bench [modularity/*].

    Mounts given a [remake] factory are {e supervised}
    ({!Ksim.Supervisor}): an oops escaping the file system is contained
    to an [EIO] result, the mount quiesces (calls drain with [EINTR] on
    the supervisor's simulated clock) and then microreboots by replacing
    its instance with [remake ()] — journal replay, for a journaled FS.
    Every reboot bumps the mount {e epoch}; {!validate_epoch} refuses
    handles from dead generations with [ESTALE].  Budget exhaustion
    degrades the mount to reads-only ([EIO] on mutations). *)

type t

val create : unit -> t

val mount :
  t ->
  at:Kspec.Fs_spec.path ->
  ?remake:(unit -> Iface.instance) ->
  ?policy:Ksim.Supervisor.policy ->
  ?stats:Ksim.Kstats.t ->
  Iface.instance ->
  unit Ksim.Errno.r
(** [EBUSY] when something is already mounted at [at].  With [remake]
    the mount is supervised: [remake ()] must rebuild a fresh instance
    over the same durable state (e.g. remount the device with journal
    recovery).  [policy]/[stats] configure the supervisor. *)

val umount : t -> at:Kspec.Fs_spec.path -> unit Ksim.Errno.r

val mounts : t -> (Kspec.Fs_spec.path * string) list
(** Mount points and the names of the file systems on them. *)

val supervisor_at : t -> Kspec.Fs_spec.path -> Ksim.Supervisor.t option
(** The supervisor of the mount [path] resolves to, if supervised. *)

val supervisors : t -> (Kspec.Fs_spec.path * Ksim.Supervisor.t) list
(** Every supervised mount with its supervisor (longest mount point
    first) — e.g. to aggregate recovery-latency SLOs across mounts. *)

val epoch_at : t -> Kspec.Fs_spec.path -> int
(** Current epoch of the mount [path] resolves to (0 when unsupervised
    or unresolved) — what open handles record at mint time. *)

val validate_epoch : t -> Kspec.Fs_spec.path -> int -> unit Ksim.Errno.r
(** [ESTALE] when [path]'s mount has rebooted past the handle's epoch;
    [ENOENT] when nothing resolves. *)

val apply : t -> Kspec.Fs_spec.op -> Kspec.Fs_spec.result
(** Resolve the op's path to the longest-prefix mount, rebase, dispatch.
    Cross-mount rename is [EXDEV]; [Fsync] fans out to all mounts.
    Supervised mounts answer [EIO] for a contained oops, [EINTR] while
    quiescing, [ESTALE]-free (handle checks live in [File_ops]). *)

val apply_stamped : t -> epoch:int -> Kspec.Fs_spec.op -> Kspec.Fs_spec.result
(** {!apply} for an operation arriving through an epoch-stamped handle
    (an open fd).  The staleness check runs {e inside} the supervised
    mount's containment thunk, so a handle from a dead generation
    answers [ESTALE] and never reaches the rebuilt instance — including
    on the call that performs the deferred microreboot itself. *)

val interpret : t -> Kspec.Fs_spec.bindings
(** The whole namespace as one listing: each mounted file system's
    bindings re-rooted under its mount point, the root mount's last (it
    wins at a clash).  A lone root mount's listing is its file
    system's. *)
