"""Fixture: TP301 — an acquire/release window without a ``finally``.

``replay`` takes the device lease and drops it at the end of the happy
path, but ``serve`` may raise mid-loop; on that exception edge the
function unwinds with the lease still held.  The typestate pass must
flag exactly the acquire site — the bug class ``try/finally`` exists to
prevent.
"""
# tp: protocol(name=lease, acquire=take_lease, release=drop_lease)


class Replayer:
    def replay(self, device, requests):
        device.take_lease()
        for request in requests:
            self.serve(request)
        device.drop_lease()

    def serve(self, request):
        if request is None:
            raise ValueError("empty request slot")
