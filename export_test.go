package libra

import "repro/internal/core"

// CoreMode is the core scheduling mode c selects, for the external tests.
func CoreMode(c Config) core.Mode { return c.toCore().Mode }
