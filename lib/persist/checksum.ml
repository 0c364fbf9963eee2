(* Built at module initialisation, not on first use: two domains forcing
   a [lazy] table at once raise [CamlinternalLazy.Undefined]. *)
let table =
  Array.init 256 (fun i ->
      let c = ref (Int32.of_int i) in
      for _ = 0 to 7 do
        c :=
          if Int32.logand !c 1l <> 0l then
            Int32.logxor (Int32.shift_right_logical !c 1) 0xEDB88320l
          else Int32.shift_right_logical !c 1
      done;
      !c)

let crc32 s =
  let c = ref 0xFFFFFFFFl in
  String.iter
    (fun ch ->
      let idx =
        Int32.to_int
          (Int32.logand (Int32.logxor !c (Int32.of_int (Char.code ch))) 0xFFl)
      in
      c := Int32.logxor table.(idx) (Int32.shift_right_logical !c 8))
    s;
  Int32.logxor !c 0xFFFFFFFFl

let to_hex crc = Printf.sprintf "%08lx" crc
