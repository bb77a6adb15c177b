package autonosql

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"
)

// dslOptions maps each option key of a DSL to the function that applies its
// value to the element being parsed. The -tenants, -admission and -faults
// DSLs are syntax only: an element is colon-separated positional fields and
// then key=value options, each option at most once; the parsers turn fields
// and values into their types, and every range check is the spec type's
// validate.
type dslOptions map[string]func(value string) error

// parseDSLList calls parse on each non-blank element of the comma-separated
// list s, trimmed. An error names the DSL and the element.
func parseDSLList(dsl, s string, parse func(elem string) error) error {
	for _, elem := range strings.Split(s, ",") {
		if elem = strings.TrimSpace(elem); elem == "" {
			continue
		}
		if err := parse(elem); err != nil {
			return fmt.Errorf("autonosql: %s %q: %w", dsl, elem, err)
		}
	}
	return nil
}

// parseDSLElement splits elem into the positional fields that grammar names
// ("kind:start:duration"), each trimmed and non-empty, and applies every
// further field as a key=value option through opts. It returns the
// positional fields.
func parseDSLElement(elem, grammar string, opts dslOptions) ([]string, error) {
	fields, names := strings.Split(elem, ":"), strings.Split(grammar, ":")
	if len(fields) < len(names) {
		return nil, fmt.Errorf("want %s, got %d fields", grammar, len(fields))
	}
	for i, name := range names {
		if fields[i] = strings.TrimSpace(fields[i]); fields[i] == "" {
			return nil, fmt.Errorf("missing %s", name)
		}
	}
	seen := make(map[string]bool, len(fields)-len(names))
	for _, opt := range fields[len(names):] {
		opt = strings.TrimSpace(opt)
		key, value, ok := strings.Cut(opt, "=")
		apply, known := opts[key]
		switch {
		case !ok || !known:
			return nil, fmt.Errorf("unknown option %q (want one of %s=)",
				opt, strings.Join(slices.Sorted(maps.Keys(opts)), "=, "))
		case value == "":
			return nil, fmt.Errorf("option %q has no value", opt)
		case seen[key]:
			return nil, fmt.Errorf("option %s= given twice", key)
		}
		seen[key] = true
		if err := apply(value); err != nil {
			return nil, fmt.Errorf("option %q: %w", opt, err)
		}
	}
	return fields[:len(names)], nil
}

// setOption returns an option that parses its value into *dst.
func setOption[T any](dst *T, parse func(string) (T, error)) func(string) error {
	return func(value string) (err error) {
		*dst, err = parse(value)
		return err
	}
}

// nonZeroOption is setOption for an option whose zero value means "the
// default": writing the zero would silently do nothing, so it is rejected.
func nonZeroOption[T comparable](dst *T, parse func(string) (T, error)) func(string) error {
	return func(value string) (err error) {
		var zero T
		if *dst, err = parse(value); err == nil && *dst == zero {
			err = errors.New("zero selects the default; leave the option out instead")
		}
		return err
	}
}

// parseFloat parses a float64 option or field.
func parseFloat(s string) (float64, error) { return strconv.ParseFloat(s, 64) }
