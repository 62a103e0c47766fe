let used x = x + 1
let allowed x = x - 1
