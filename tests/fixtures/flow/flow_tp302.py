"""Fixture: TP302 — a held-only call after the window closed.

``renew`` only makes sense while the lease is held; renewing after
``drop_lease`` touches a window that no longer exists.  The typestate
pass must flag exactly the ``renew`` call.
"""
# tp: protocol(name=lease, acquire=take_lease, release=drop_lease, use=renew)


def renew_late(device):
    device.take_lease()
    device.drop_lease()
    device.renew()
