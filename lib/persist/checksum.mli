(** CRC-32 (the IEEE 802.3 polynomial, as in zip/gzip) for journal
    record integrity.  Not cryptographic — it detects torn writes and
    bit rot, not tampering. *)

val crc32 : string -> int32
(** Safe to call from several domains at once. *)

val to_hex : int32 -> string
(** Lower-case, zero-padded 8-digit rendering ("cbf43926"). *)
