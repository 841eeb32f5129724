package scenario

// UpdateGolden exposes the -update flag to the external test package, which
// cannot declare a second flag of the same name in this test binary.
var UpdateGolden = update
