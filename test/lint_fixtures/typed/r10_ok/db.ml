let capture () = { Read_path.snap = 0 }
let with_pin f = f ()
