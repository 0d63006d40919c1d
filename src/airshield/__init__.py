"""Airflow safety barrier toolkit for human-robot collaboration.

Subsystems: marker pose geometry, the proximity safety state machine, the
impeller jet and perception models, the stage latency model, a seeded
interaction simulator whose trial loop is the one sense -> decide ->
actuate pipeline, a self-contained statistics kernel, and the actuator
wire codec with JSON-lines trace files.
"""

__version__ = "0.1.0"
