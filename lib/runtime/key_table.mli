(** An open-addressing hash table from operation keys [(client, seq)] to a
    small non-zero code and, optionally, a float, over flat arrays.

    Built for {!Mempool}'s record of every key it has seen, which grows
    with every operation a replica ever commits: a slot costs two unboxed
    ints and one byte, against a bucket cell plus a boxed key tuple in a
    [(int * int, _) Hashtbl.t]. A table that has ever had a value set also
    keeps one unboxed float per slot; the cluster's in-flight submit times
    and the pool's per-client counts live there. Lookups compare both
    fields, so any pair of ints is a valid key, [min_int] and [max_int]
    included. Keys can be removed: removal shifts the rest of the probe
    run back instead of leaving a tombstone, so a table whose keys come
    and go stays as fast as one that only grows. *)

type t

val create : unit -> t
(** An empty table with room for a few dozen keys; it doubles as it fills. *)

val find : t -> client:int -> seq:int -> int
(** The code stored under the key, or [0] when the key is absent. *)

val replace : t -> client:int -> seq:int -> int -> unit
(** Store a code under the key, adding the key if absent.
    @raise Invalid_argument unless the code is in [1..255]. *)

val exchange : t -> client:int -> seq:int -> int -> int
(** [replace], returning the code the key had before ([0] when it was
    absent), in a single probe.
    @raise Invalid_argument unless the code is in [1..255]. *)

val remove : t -> client:int -> seq:int -> unit
(** Drop the key with its code and value; a no-op when it is absent. *)

val value : t -> client:int -> seq:int -> float
(** The value stored with the key: [nan] when the key is absent, [0.]
    when it is present but no value was set. *)

val set_value : t -> client:int -> seq:int -> float -> unit
(** Store a value with the key, adding the key with code [1] if absent. *)

val counter : t -> client:int -> seq:int -> int
(** The key's value read as an integer count; [0] when the key is absent. *)

val add_counter : t -> client:int -> seq:int -> int -> unit
(** Add to the key's count, adding the key (code [1]) if absent and
    removing it when the count reaches [0], so a table of counts holds
    only the non-zero ones. Counts are exact up to 2{^53}. *)

val length : t -> int
(** Number of keys stored. *)

val hash : client:int -> seq:int -> int
(** The key's hash; a key's probe sequence starts at the hash modulo the
    (power-of-two) slot count. Exposed so tests can build colliding keys. *)
