(** One replica's execution history: for every step that executed
    operations, the instant it finished and how many it executed.

    Steps finish in time order (each starts no earlier than the previous
    one finished), so the log is a sorted array and both queries are
    binary searches rather than folds over the whole history. *)

type t

val create : unit -> t

val append : t -> time:float -> ops:int -> unit
(** Record a step that finished at [time] having executed [ops].
    @raise Invalid_argument unless [time] is at or after the previous
    entry's. *)

val total : t -> int
(** Operations executed over the whole log. *)

val first_after : t -> float -> float option
(** The earliest entry time strictly after the instant. *)

val ops_in : t -> since:float -> until:float -> int
(** Operations executed by steps finishing in [\[since, until\]]. *)
