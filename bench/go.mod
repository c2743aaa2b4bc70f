// The benchmark is a module of its own so it builds from its own
// directory; the path keeps the repro/ prefix so it may import the
// repository's internal packages, which the replace line points at.
module repro/bench

go 1.24

require repro v0.0.0

replace repro => ../
