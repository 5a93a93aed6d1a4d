// Package ignorefix exercises the //turbdb:ignore suppression directive:
// a well-formed directive silences a finding and carries its mandatory
// reason into the report; a reasonless directive is itself a finding and
// suppresses nothing.
package ignorefix

import "errors"

func mayFail() error { return errors.New("x") }

// dropSuppressed is silenced by a well-formed directive.
func dropSuppressed() {
	mayFail() //turbdb:ignore droppederr best-effort cleanup, a failure changes nothing
}

// dropMalformed: the directive below is missing its mandatory reason, so it
// is reported itself and the dropped error stays an active finding.
func dropMalformed() {
	//turbdb:ignore droppederr
	mayFail()
}
