// The benchmark is a module of its own so that it builds from its own
// directory; the replace points it at the system under test one level up.
// The module path keeps the disttrack/ prefix, which is what lets it import
// disttrack/internal/... packages.
module disttrack/bench

go 1.23

require disttrack v0.0.0

replace disttrack => ../
