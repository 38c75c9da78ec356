package inplace

// Array-of-Structures ↔ Structure-of-Arrays conversion (paper §6.1).
//
// An Array of Structures holding count structures of fields words each is
// bit-identical to a row-major count×fields matrix; its transpose — the
// fields×count matrix — is the Structure-of-Arrays layout. The direction
// heuristic picks the pipeline whose internal columns are `fields` long,
// which is the paper's specialization: with the structure size tiny,
// every column operation runs in cache ("in on-chip memory"), the row
// passes stream, and conversion proceeds at transpose speed. The paper
// measured this at a median 34.3 GB/s on the K20c (Figure 7).

// aosArgs validates the shared AOSToSOA/SOAToAOS contract — positive
// shape, overflow-free product, matching buffer length — and resolves
// the variadic options.
//
//xpose:hotpath
func aosArgs[T any](data []T, count, fields int, opts []Options) (Options, error) {
	o := optionsOf(opts)
	size, err := checkShape(count, fields)
	if err != nil {
		return o, err
	}
	if len(data) != size {
		return o, lengthErr(len(data), size)
	}
	return o, nil
}

// AOSToSOA converts an Array of Structures to a Structure of Arrays in
// place: data holds count structures of fields elements each; afterwards
// it holds fields arrays of count elements each.
//
//xpose:hotpath
func AOSToSOA[T any](data []T, count, fields int, opts ...Options) error {
	o, err := aosArgs(data, count, fields, opts)
	if err != nil {
		return err
	}
	return TransposeWith(data, count, fields, o)
}

// SOAToAOS converts a Structure of Arrays back to an Array of
// Structures in place: data holds fields arrays of count elements each;
// afterwards it holds count structures of fields elements each.
//
//xpose:hotpath
func SOAToAOS[T any](data []T, count, fields int, opts ...Options) error {
	o, err := aosArgs(data, count, fields, opts)
	if err != nil {
		return err
	}
	return TransposeWith(data, fields, count, o)
}
