// Package latchbad violates the declared-table-set invariant in every way
// latchcheck can detect.
package latchbad

import "fix/latchdb"

const (
	tUsers  = "t_users"
	tOrders = "t_orders"
)

// Direct access to a table missing from the declared set.
func undeclaredDirect(e *latchdb.Engine) error {
	tx, err := e.Begin(tUsers)
	if err != nil {
		return err
	}
	defer tx.Rollback()
	if _, err := tx.Insert(tOrders, nil); err != nil { // want "touches undeclared table"
		return err
	}
	if _, err := tx.Update(tOrders, 1, nil); err != nil { // want "touches undeclared table"
		return err
	}
	return tx.Commit()
}

// The violation hides inside a helper the transaction is passed to.
func undeclaredViaHelper(e *latchdb.Engine) error {
	tx, err := e.Begin(tUsers)
	if err != nil {
		return err
	}
	defer tx.Rollback()
	return insertOrder(tx)
}

func insertOrder(tx *latchdb.Tx) error {
	_, err := tx.Insert(tOrders, nil) // want "touches undeclared table"
	return err
}

// A declared set built from a value the dataflow cannot bound.
func dynamicDeclared(e *latchdb.Engine, suffix string) error {
	tx, err := e.Begin("t_" + suffix) // want "cannot resolve the declared table set"
	if err != nil {
		return err
	}
	return tx.Commit()
}

// A table name the dataflow cannot bound at the access site.
func dynamicAccess(e *latchdb.Engine, suffix string) error {
	tx, err := e.Begin(tUsers)
	if err != nil {
		return err
	}
	defer tx.Rollback()
	_, err = tx.Insert("t_"+suffix, nil) // want "cannot resolve the table name"
	return err
}

// The transaction is not bound to a variable the analysis can follow.
func unbound(e *latchdb.Engine) {
	e.Begin(tUsers) // want "not bound to a local variable"
}

var stashed *latchdb.Tx

// The transaction escapes into a package variable; accesses through the
// alias are invisible to the analysis.
func escapes(e *latchdb.Engine) error {
	tx, err := e.Begin(tUsers)
	if err != nil {
		return err
	}
	stashed = tx // want "escapes the declared-set analysis"
	return nil
}
