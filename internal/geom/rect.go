package geom

// Rect is an axis-aligned rectangle in 2D screen space (pixels).
type Rect struct {
	MinX, MinY, MaxX, MaxY int
}

// Clip returns r restricted to o. The result may be empty.
func (r Rect) Clip(o Rect) Rect {
	c := r
	if c.MinX < o.MinX {
		c.MinX = o.MinX
	}
	if c.MinY < o.MinY {
		c.MinY = o.MinY
	}
	if c.MaxX > o.MaxX {
		c.MaxX = o.MaxX
	}
	if c.MaxY > o.MaxY {
		c.MaxY = o.MaxY
	}
	return c
}

// Empty reports whether the rectangle covers no pixels.
func (r Rect) Empty() bool { return r.MinX > r.MaxX || r.MinY > r.MaxY }
