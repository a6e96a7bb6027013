// Package lib is the checked side of the exported-surface checker's
// self-test. Planted has no caller outside this package.
package lib

// Used is constructed by the consumer.
type Used struct{}

// NewUsed returns a Used.
func NewUsed() *Used { return &Used{} }

// Result is named by no consumer; it is reached through Reached.
type Result struct{ N int }

// Reached returns a Result.
func (u *Used) Reached() Result { return Result{N: 1} }

// Temporary satisfies the consumer's literal interface.
func (u *Used) Temporary() bool { return true }

// Planted is the unused export the checker must report.
func Planted() {}
