package stats

import (
	"errors"
	"fmt"
)

// TransientError marks a statistics build/refresh failure as one expected to
// clear on its own (an injected flaky fault, a torn snapshot, a spill file
// that could not be written), as opposed to a permanent condition like an
// unknown table or column. Both kinds are handled alike — MNSA plans the
// affected predicates on magic numbers and maintenance retries the table on
// its next pass — but MNSA reports the class as the failure's reason
// ("transient" or "error"), so an operator can tell a passing fault from a
// broken one.
//
// TransientError wraps the underlying cause, so callers can both classify
// (errors.As(&TransientError{})) and still reach the root cause with
// errors.Is — e.g. a flaky-provider test asserting the injected sentinel.
type TransientError struct {
	Err error
}

// Error implements error.
func (e *TransientError) Error() string { return fmt.Sprintf("transient: %v", e.Err) }

// Unwrap exposes the underlying cause to errors.Is / errors.As.
func (e *TransientError) Unwrap() error { return e.Err }

// Transient wraps err as a TransientError (nil stays nil). Wrapping an
// already-transient error is a no-op, so classification layers can be
// composed without nesting.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	var te *TransientError
	if errors.As(err, &te) {
		return err
	}
	return &TransientError{Err: err}
}

// IsTransient reports whether err is (or wraps) a TransientError.
func IsTransient(err error) bool {
	var te *TransientError
	return errors.As(err, &te)
}
