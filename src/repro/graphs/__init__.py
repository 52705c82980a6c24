"""Graph substrate: edge-list graphs (local numpy arrays and their Spark
broadcast view), synthetic generators, and dataset statistics."""
