let unused x = x + 1
let internal x = x * 2
let outside_only x = internal x - 1
