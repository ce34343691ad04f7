(** An open-addressing hash table from operation keys [(client, seq)] to a
    small non-zero code, over flat arrays.

    Built for {!Mempool}'s record of every key it has seen, which grows
    with every operation a replica ever commits: a slot costs two unboxed
    ints and one byte, against a bucket cell plus a boxed key tuple in a
    [(int * int, _) Hashtbl.t]. Lookups compare both fields, so any pair of
    ints is a valid key, [min_int] and [max_int] included. Keys are never
    removed. *)

type t

val create : unit -> t
(** An empty table with room for a few dozen keys; it doubles as it fills. *)

val find : t -> client:int -> seq:int -> int
(** The code stored under the key, or [0] when the key is absent. *)

val replace : t -> client:int -> seq:int -> int -> unit
(** Store a code under the key, adding the key if absent.
    @raise Invalid_argument unless the code is in [1..255]. *)

val length : t -> int
(** Number of keys stored. *)

val hash : client:int -> seq:int -> int
(** The key's hash; a key's probe sequence starts at the hash modulo the
    (power-of-two) slot count. Exposed so tests can build colliding keys. *)
