package text

import "strings"

// SafeFileName maps a name (a suite variant name contains spaces and '=')
// onto a filesystem-safe token: every rune outside [A-Za-z0-9._-] becomes
// '_'. Distinct names can collide after sanitization; callers that derive
// file names from it must disambiguate or detect the collision.
func SafeFileName(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '.', r == '_':
			return r
		default:
			return '_'
		}
	}, name)
}
