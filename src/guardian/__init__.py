"""GUARDIAN: anomaly detection and pruning for multi-agent collaboration.

Models a round-based debate as a discrete-time temporal attributed graph,
trains an unsupervised graph autoencoder with an information-compression
penalty on it incrementally, and prunes the highest-scoring anomalous
agent per round. Ships with a scripted debate simulator that injects
labeled faults and a harness that measures accuracy, weighted detection
rate, false discovery rate and API-call cost.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
