"""Graph substrate: driver-side connected components (GraphX substitute)."""
