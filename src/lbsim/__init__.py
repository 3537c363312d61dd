"""lbsim: a packet-level L7 load balancer with a deterministic network simulator.

Core pieces:
  packet       packet/flow-key data model, wrapping seq arithmetic
  conntable    concurrent cuckoo connection table (version-checked lock-free reads)
  splice       TCP splicing agent: handshake, header insertion, seq/ACK rewriting
  flow_engine  simulated match-action engine with rule-update latency model
  offload      offload manager: threshold decision, rule lifecycle, batched deletes
  netsim       discrete-event network with miniature TCP endpoints and HTTP apps
  oracles      independent reference models the tests check the mappings against
"""

__version__ = "0.1.0"
