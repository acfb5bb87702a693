package main

// pinKey names one pinned run: workload, seed and work (vrounds).
type pinKey struct {
	workload string
	seed     int64
	work     int
}

// pins are the digests of the simulated statistics and final checkpoint
// bytes (see worldDigest): the default seeds at the default run length,
// and the self-test's runs.
// A run whose key is pinned fails its digest_pin check on any other value:
// that is a behaviour change, which no optimisation may make.
var pins = map[pinKey]string{
	// soak at --seconds 10 (16000 vrounds).
	{"soak", 1, 16000}:  "758d298177ae55e2",
	{"soak", 2, 16000}:  "edc13bc9bac42107",
	{"soak", 3, 16000}:  "4490300c1ccae97b",
	{"soak", 4, 16000}:  "15fcc218f264d81a",
	{"soak", 5, 16000}:  "d8446cafc5e80eaa",
	{"soak", 6, 16000}:  "f057888583e835ab",
	{"soak", 7, 16000}:  "e268a83f500b9d4d",
	{"soak", 8, 16000}:  "21032bd5c8d5fd32",
	{"soak", 9, 16000}:  "8410d0e373f16240",
	{"soak", 10, 16000}: "0ddb89f113270a73",
	// metro at --seconds 10 (50 vrounds).
	{"metro", 1, 50}:  "202678ae689d4d06",
	{"metro", 2, 50}:  "fc1ff8e44301366c",
	{"metro", 3, 50}:  "f8c78b8e871724ee",
	{"metro", 4, 50}:  "5a9d84f698a9f224",
	{"metro", 5, 50}:  "0546ece698618536",
	{"metro", 6, 50}:  "00bb5c9708f364c0",
	{"metro", 7, 50}:  "65d8ca6d47ae37ce",
	{"metro", 8, 50}:  "146e1741c5fad643",
	{"metro", 9, 50}:  "80b08b84c556fb1b",
	{"metro", 10, 50}: "e5926b77dc7cc6fd",
	// city at --seconds 10 (13 vrounds).
	{"city", 1, 13}:  "9f25a5b3132dd541",
	{"city", 2, 13}:  "e295a6e3c3f677c9",
	{"city", 3, 13}:  "c0be8976f309205f",
	{"city", 4, 13}:  "d842c8fdc165a0e1",
	{"city", 5, 13}:  "5e2fbc3097c8be50",
	{"city", 6, 13}:  "86bedaee5c57a54e",
	{"city", 7, 13}:  "c4b5b9103893737a",
	{"city", 8, 13}:  "3cba2b5fa6dc7bae",
	{"city", 9, 13}:  "f5ced406ec20bd45",
	{"city", 10, 13}: "e82881c7acf22016",
	// The self-test's run sizes (main_test.go testWork).
	{"soak", 1, 60}: "a31c680471a2b923",
	{"metro", 1, 1}: "33288a89cc9d06cc",
	{"city", 1, 1}:  "bbdadf8dc1088e13",
}
