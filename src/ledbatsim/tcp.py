"""Loss-based AIMD competitor: TCP congestion avoidance with optional slow start.

Congestion avoidance grows the window by 1/cwnd per ack (one packet per RTT);
slow start grows it by 1 per ack until the first loss. On loss the window
halves, at most once per RTT, and slow start is left for good. Loss detection,
retransmission, and send gating live in SenderBase and are shared with the
delay-based flow so the two compete on identical machinery.
"""

from .engine import Engine
from .network import Bottleneck, Packet
from .transport import MIN_CWND_PKTS, FlowSpec, SenderBase


class TcpFlow(SenderBase):
    def __init__(self, engine: Engine, flow_id: int, link: Bottleneck, spec: FlowSpec):
        super().__init__(engine, flow_id, link)
        self.ss_active = spec.slow_start

    def on_new_ack(self, ack: Packet, newly_acked: int, now: int) -> None:
        if self.ss_active:
            self.cwnd += 1.0
        else:
            self.cwnd += 1.0 / self.cwnd

    def on_loss(self, now: int) -> None:
        if self._halve(now, max(self.cwnd / 2.0, MIN_CWND_PKTS)):
            self.ss_active = False
