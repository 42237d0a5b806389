//! The stream→stack partition rule shared by both backends.

use crate::proto::StreamId;

/// The worker/stack index that owns `stream` under the static modulo
/// partition over `n` stacks — the IPS assignment rule shared by the
/// `afs-core` simulator and the `afs-native` backend.
pub fn owner_of(stream: StreamId, n: usize) -> usize {
    stream.0 as usize % n.max(1)
}
