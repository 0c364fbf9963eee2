(* Built on first use, not while a process initialises its modules, and
   one app at a time, under one lock: serve resolves built-in apps on
   pool domains, and two domains must not force one lazy value. *)
let apps =
  [
    ("romberg", lazy (Romberg.make ()));
    ("romberg-wide", lazy (Romberg.make ~workers:8 ~rounds:3 ()));
    ("fft8", lazy (Fft.make ()));
    ("fft16", lazy (Fft.make ~points:16 ()));
    ("objrec", lazy (Object_recognition.make ()));
    ("objrec-deep", lazy (Object_recognition.make ~frames:8 ~extractors:5 ()));
    ("imgenc", lazy (Image_encoder.make ()));
    ("imgenc-long", lazy (Image_encoder.make ~blocks:12 ~block_bits:1024 ()));
  ]

let lock = Mutex.create ()
let force app = Mutex.protect lock (fun () -> Lazy.force app)
let all () = List.map (fun (name, app) -> (name, force app)) apps
let find name = Option.map force (List.assoc_opt name apps)
