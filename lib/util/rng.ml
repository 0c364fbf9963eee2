(* The splitmix64 word lives unboxed in 8 bytes, read and written with
   the native 64-bit primitives: with [bits64] and [mix64] inlined, a
   draw keeps the word in registers and allocates nothing, where a
   mutable [int64] field would box a fresh word on every step. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state state =
  let t = Bytes.create 8 in
  set64 t 0 state;
  t

let create ~seed = of_state (mix64 (Int64.of_int seed))

let[@inline] bits64 t =
  let state = Int64.add (get64 t 0) golden_gamma in
  set64 t 0 state;
  mix64 state

let split t = of_state (mix64 (bits64 t))

let copy = Bytes.copy
let state t = get64 t 0
let set_state t state = set64 t 0 state

(* Unbiased bounded integer by rejection on the top 62 bits (keeps the
   result a non-negative OCaml int).  A top-level loop rather than a
   local closure, so a draw allocates nothing. *)
let rec int_below t bound =
  let r = Int64.to_int (Int64.logand (bits64 t) 0x3FFFFFFFFFFFFFFFL) in
  let v = r mod bound in
  if r - v > 0x3FFFFFFFFFFFFFFF - bound + 1 then int_below t bound else v

let int t bound =
  assert (bound > 0);
  int_below t bound

let int_in t lo hi =
  assert (lo <= hi);
  lo + int t (hi - lo + 1)

let float t bound =
  let r = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  bound *. (r /. 9007199254740992.0)

let bool t = Int64.logand (bits64 t) 1L = 1L

let shuffle_in_place t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let choose t a =
  assert (Array.length a > 0);
  a.(int t (Array.length a))

let choose_list t l =
  match l with
  | [] -> invalid_arg "Rng.choose_list: empty list"
  | _ :: _ -> List.nth l (int t (List.length l))

let sample_without_replacement t k items =
  assert (k <= Array.length items);
  let a = Array.copy items in
  shuffle_in_place t a;
  Array.sub a 0 k
