(* Shared helpers for the test suite. *)

let contains_substring ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec scan i = i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1)) in
  nl = 0 || scan 0

let check_contains ~msg ~needle haystack =
  Alcotest.(check bool)
    (Printf.sprintf "%s (looking for %S)" msg needle)
    true
    (contains_substring ~needle haystack)

(* Property iteration budget.  [make test-props] sets NOCMAP_PROP_MULT to
   multiply every property's base count for a deeper soak. *)
let prop_count base =
  match Option.bind (Sys.getenv_opt "NOCMAP_PROP_MULT") int_of_string_opt with
  | Some mult when mult > 0 -> base * mult
  | Some _ | None -> base

(* Words [f ()] allocates on both heaps.  Arrays over 256 words skip the
   minor heap, so [Gc.minor_words] alone misses them; [Gc.allocated_bytes]
   counts both heaps but sees minor-heap words only as of the last minor
   collection, so a collection opens and one closes the window. *)
let words_allocated f =
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  f ();
  Gc.minor ();
  (Gc.allocated_bytes () -. before) /. float_of_int (Sys.word_size / 8)
