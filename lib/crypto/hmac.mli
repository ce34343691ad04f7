(** HMAC-SHA256 (RFC 2104). Used as the tag function of the simulated
    signature schemes. *)

val mac : key:string -> string -> Sha256.t
(** [mac ~key msg] is HMAC-SHA256(key, msg). Keys of any length are
    accepted; keys longer than the block size are hashed first, per the
    RFC. *)

type key
(** A key with its inner and outer pad blocks already absorbed: the two
    SHA-256 midstates every tag under the key starts from. *)

val prepare : string -> key
(** [mac_prepared] with the result equals [mac] with the raw key. The pad
    blocks are absorbed once, on the key's first tag, which saves two of
    the four block compressions a short message's tag costs. *)

val mac_prepared : key:key -> string -> Sha256.t
