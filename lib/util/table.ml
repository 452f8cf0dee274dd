type align = Left | Right

let pad align width s =
  let n = String.length s in
  if n >= width then s
  else
    let fill = String.make (width - n) ' ' in
    match align with Left -> s ^ fill | Right -> fill ^ s

let render ?(align = []) ~header rows =
  let ncols = List.length header in
  let normalize row =
    let len = List.length row in
    if len >= ncols then row else row @ List.init (ncols - len) (fun _ -> "")
  in
  let rows = List.map normalize rows in
  let widths = Array.make ncols 0 in
  let measure row =
    List.iteri (fun i cell -> if i < ncols then widths.(i) <- max widths.(i) (String.length cell)) row
  in
  measure header;
  List.iter measure rows;
  let align_of i = match List.nth_opt align i with Some a -> a | None -> Left in
  let trim_right s =
    let n = ref (String.length s) in
    while !n > 0 && s.[!n - 1] = ' ' do
      decr n
    done;
    String.sub s 0 !n
  in
  let line row =
    row
    |> List.mapi (fun i cell -> pad (align_of i) widths.(i) cell)
    |> String.concat "  "
    |> fun s -> trim_right s ^ "\n"
  in
  let rule =
    String.concat "  " (Array.to_list (Array.map (fun w -> String.make w '-') widths)) ^ "\n"
  in
  String.concat "" (line header :: rule :: List.map line rows)

let print ?align ~header rows = print_string (render ?align ~header rows)

let fmt_float x = Printf.sprintf "%.2f" x

let fmt_pct x = Printf.sprintf "%.1f%%" (x *. 100.0)

let fmt_x x = Printf.sprintf "%.2fx" x
