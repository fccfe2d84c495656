(** The workload DSL: what a load run drives, as data.

    A spec names a tenant population, an op budget per tenant, the shared
    durable key space, the payload ceiling, and a set of {e tenant
    classes}.  Each tenant is assigned one class (weighted by the class
    [weight]s, from its own seeded stream) and draws its operations from
    the class's kind mix.

    Concrete syntax ([of_string]/[to_string] round-trip):

    {v
    tenants=500;ops=8;keyspace=48;payload=2048;
    classes=interactive:5:meta=5,dread=3,dwrite=1,net=2|bulk:2:dwrite=8,dread=2
    v}

    Semicolon-separated [key=value] pairs; [classes] is [|]-separated
    entries of [name:weight:mix], the mix being comma-separated
    [kind=weight] pairs over the kinds [meta], [dwrite], [dread], [net],
    [churn].  Omitted keys keep the {!default} value.  Whitespace around
    separators is ignored. *)

(** What one generated operation does to the kernel under test. *)
type kind =
  | Meta  (** VFS metadata traffic (create/readdir/unlink) on the root *)
  | Data_write  (** versioned durable write + fsync on the journaled mount *)
  | Data_read  (** durable read-back from the journaled mount *)
  | Net  (** one request/response round trip through the supervised socket layer *)
  | Churn  (** file churn on the supervised (panicky) service mount *)

val kind_id : kind -> int
(** Stable small integer for kebpf context encoding (0..4). *)

val kind_name : kind -> string

val all_kinds : kind list
(** Every kind, in {!kind_id} order. *)

type tenant_class = {
  cname : string;
  weight : int;  (** share of the tenant population, relative *)
  mix : (kind * int) list;  (** op-kind weights within the class *)
}

type t = {
  tenants : int;
  ops_per_tenant : int;
  keyspace : int;  (** shared durable keys [/dur/k<i>], [i < keyspace] *)
  payload : int;  (** payload size ceiling, bytes (Pareto-distributed below) *)
  classes : tenant_class list;
}

val default : t
(** 500 tenants, 8 ops each, 48 keys, 2048-byte ceiling, four classes:
    [interactive] (metadata-heavy), [bulk] (large writes), [rpc]
    (request/response), [churny] (service-module churn). *)

val total_ops : t -> int
(** [tenants * ops_per_tenant] — the tick space storms are scaled to. *)

val min_payload : int
(** The smallest payload size the generator draws (32 bytes), and so the
    smallest [payload] ceiling {!validate} accepts. *)

val validate : t -> (t, string) result
(** Reject empty populations, empty classes, non-positive weights and
    payload ceilings below {!min_payload}. *)

val of_string : string -> (t, string) result
(** Parse the DSL over {!default} (unmentioned fields keep defaults). *)

val to_string : t -> string
(** Canonical DSL text; [of_string (to_string t) = Ok t]. *)
