// Package chaffmec exercises the facade analyzer: the suite is loaded
// under the import path "chaffmec", the only package the analyzer
// applies to. Exported aliases bless internal types; anything else
// internal in an exported signature is a leak, and every exported
// symbol needs a doc comment.
package chaffmec

import "chaffmec/internal/impl"

// Blessed re-exports the internal type: the blessing mechanism.
type Blessed = impl.Blessed

// NewBlessed returns the blessed alias: no leak.
func NewBlessed() *Blessed { return impl.NewBlessed() }

func Undocumented() int { return 0 } // want `exported function Undocumented needs a doc comment`

// LeakHidden exposes an internal type with no alias.
func LeakHidden() *impl.Hidden { return impl.NewHidden() } // want `exported LeakHidden leaks internal type chaffmec/internal/impl\.Hidden`

func LeakAndUndoc(h *impl.Hidden) {} // want `exported function LeakAndUndoc needs a doc comment` `exported LeakAndUndoc leaks internal type`

// LeakGeneric leaks an internal generic through its instantiation.
func LeakGeneric() impl.Box[int] { return impl.Box[int]{} } // want `exported LeakGeneric leaks internal type chaffmec/internal/impl\.Box`

// Config is a facade-defined type: its exported fields are surface.
type Config struct {
	// Hidden leaks through a struct field.
	Hidden *impl.Hidden // want `exported Config\.Hidden leaks internal type`
	// Blessed fields are fine.
	Value Blessed

	unexported *impl.Hidden // unexported fields are not surface
}

// Version is documented; a trailing comment would also count (it is
// the idiomatic doc style for grouped consts), which is why the
// missing-doc-on-const case lives in a unit test, not this suite — a
// trailing want comment would document the const it tests.
const Version = "v0"

// DefaultBlessed is documented and blessed: clean.
var DefaultBlessed *Blessed

// OldNewBlessed is the constructor's pre-rename spelling.
//
// Deprecated: use NewBlessed instead.
func OldNewBlessed() *Blessed { return NewBlessed() }

// SloppyOld is deprecated, please call NewBlessed.
func SloppyOld() *Blessed { return NewBlessed() } // want `exported function SloppyOld mentions deprecation without a well-formed`

// EmptyOld gets the marker right but forgets the guidance.
//
// Deprecated:
func EmptyOld() *Blessed { return NewBlessed() } // want `exported function EmptyOld mentions deprecation without a well-formed`

// OldConfig is the old name for Config.
//
// Deprecated: use Config; OldConfig remains as a compile-compat alias.
type OldConfig = Config

// SloppyOldConfig is a deprecated alias lacking the marker line.
type SloppyOldConfig = Config // want `exported type SloppyOldConfig mentions deprecation without a well-formed`

// HeaderTalker is current API; its doc mentioning the HTTP
// Deprecation response header a server may answer with must not
// fire the marker rule (the trigger is the whole word, not the
// header name).
func HeaderTalker() *Blessed { return NewBlessed() }

// SuppressedLeak documents a justified migration-period exception.
//
//lint:ignore facade suite fixture: justified exception, alias lands in the next PR
func SuppressedLeak() *impl.Hidden { return impl.NewHidden() }
