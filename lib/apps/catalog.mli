(** The eight embedded applications of the paper's Section 5: the four
    base algorithms and one variation of each. *)

val all : unit -> (string * Nocmap_model.Cdcg.t) list
(** [(name, cdcg)] pairs:
    romberg / romberg-wide, fft8 / fft16, objrec / objrec-deep,
    imgenc / imgenc-long.  Each app is built on its first use, here or
    through {!find}, and shared after that; any domain may call either
    function. *)

val find : string -> Nocmap_model.Cdcg.t option
