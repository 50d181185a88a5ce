//! The generic typed publish–subscribe core.
//!
//! A [`Topic<T>`] fans every published event out to all live
//! subscriptions, each of which owns a private FIFO queue with its own
//! backpressure [`Policy`]. Publishers never observe each other;
//! subscribers never share queues. Per-publisher FIFO order is
//! guaranteed: a subscriber sees any one publisher's events in the
//! order that publisher sent them, because each `publish` appends to
//! every queue before returning.

use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Backpressure behaviour of one subscription's queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Bounded queue; publishers block while it is full (lossless,
    /// propagates backpressure upstream).
    Block {
        /// Maximum queued events.
        capacity: usize,
    },
    /// Unbounded queue (for streams that must be both lossless and
    /// non-blocking).
    Unbounded,
}

/// Error returned by [`Topic::publish`] after [`Topic::close`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PublishError;

impl std::fmt::Display for PublishError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("publishing on a closed topic")
    }
}

impl std::error::Error for PublishError {}

/// Error returned by [`Subscription::recv`]: the topic closed and the
/// queue has drained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

impl std::fmt::Display for RecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("receiving on a closed, drained topic")
    }
}

impl std::error::Error for RecvError {}

/// Error returned by [`Subscription::try_recv`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    /// Queue currently empty but the topic is open.
    Empty,
    /// Topic closed and queue drained.
    Closed,
}

type Filter<T> = Box<dyn Fn(&T) -> bool + Send + Sync>;

struct SubQueue<T> {
    queue: Mutex<VecDeque<T>>,
    readable: Condvar,
    writable: Condvar,
    policy: Policy,
    filter: Option<Filter<T>>,
    detached: AtomicBool,
}

struct TopicCore<T> {
    name: String,
    subscribers: Mutex<Vec<Arc<SubQueue<T>>>>,
    closed: AtomicBool,
}

/// A named, typed event stream with fan-out to every subscription.
pub struct Topic<T> {
    core: Arc<TopicCore<T>>,
}

impl<T> Clone for Topic<T> {
    fn clone(&self) -> Self {
        Topic {
            core: self.core.clone(),
        }
    }
}

impl<T> std::fmt::Debug for Topic<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Topic")
            .field("name", &self.core.name)
            .field("closed", &self.core.closed.load(Ordering::SeqCst))
            .finish()
    }
}

impl<T: Clone> Topic<T> {
    /// Create an open topic.
    pub fn new(name: impl Into<String>) -> Self {
        Topic {
            core: Arc::new(TopicCore {
                name: name.into(),
                subscribers: Mutex::new(Vec::new()),
                closed: AtomicBool::new(false),
            }),
        }
    }

    /// Subscribe with `policy`; receives every subsequent event.
    pub fn subscribe(&self, policy: Policy) -> Subscription<T> {
        self.attach(policy, None)
    }

    /// Subscribe with a predicate; only events for which `filter`
    /// returns `true` enter this subscription's queue (evaluated at
    /// publish time, on the publisher's thread).
    pub fn subscribe_filtered<F>(&self, policy: Policy, filter: F) -> Subscription<T>
    where
        F: Fn(&T) -> bool + Send + Sync + 'static,
    {
        self.attach(policy, Some(Box::new(filter)))
    }

    fn attach(&self, policy: Policy, filter: Option<Filter<T>>) -> Subscription<T> {
        if let Policy::Block { capacity } = policy {
            assert!(capacity > 0, "bounded queue needs capacity > 0");
        }
        let sub = Arc::new(SubQueue {
            queue: Mutex::new(VecDeque::new()),
            readable: Condvar::new(),
            writable: Condvar::new(),
            policy,
            filter,
            detached: AtomicBool::new(false),
        });
        self.core.subscribers.lock().push(sub.clone());
        Subscription {
            sub,
            topic: self.core.clone(),
        }
    }

    /// Deliver `event` to every matching live subscription. Returns the
    /// number of queues it entered. Blocks while any `Block`-policy
    /// queue is full.
    pub fn publish(&self, event: T) -> Result<usize, PublishError> {
        if self.core.closed.load(Ordering::SeqCst) {
            return Err(PublishError);
        }
        // Snapshot the subscriber list so delivery does not hold the
        // topic lock (subscribers added mid-publish see later events).
        let subs: Vec<Arc<SubQueue<T>>> = self.core.subscribers.lock().clone();
        let mut receivers = 0;
        for sub in &subs {
            if sub.detached.load(Ordering::SeqCst) {
                continue;
            }
            if let Some(filter) = &sub.filter {
                if !filter(&event) {
                    continue;
                }
            }
            let mut queue = sub.queue.lock();
            match sub.policy {
                Policy::Block { capacity } => {
                    while queue.len() >= capacity
                        && !sub.detached.load(Ordering::SeqCst)
                        && !self.core.closed.load(Ordering::SeqCst)
                    {
                        sub.writable.wait(&mut queue);
                    }
                    if sub.detached.load(Ordering::SeqCst) {
                        continue;
                    }
                }
                Policy::Unbounded => {}
            }
            queue.push_back(event.clone());
            receivers += 1;
            sub.readable.notify_one();
        }
        Ok(receivers)
    }

    /// Close the topic: publishes start failing, blocked publishers and
    /// receivers wake, and receivers drain whatever is already queued
    /// before seeing [`RecvError`].
    pub fn close(&self) {
        self.core.closed.store(true, Ordering::SeqCst);
        for sub in self.core.subscribers.lock().iter() {
            let _queue = sub.queue.lock();
            sub.readable.notify_all();
            sub.writable.notify_all();
        }
    }
}

/// A private FIFO view of one topic.
pub struct Subscription<T> {
    sub: Arc<SubQueue<T>>,
    topic: Arc<TopicCore<T>>,
}

impl<T> Subscription<T> {
    /// Block until an event arrives; `Err` once the topic is closed and
    /// this queue has drained.
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut queue = self.sub.queue.lock();
        loop {
            if let Some(event) = queue.pop_front() {
                self.sub.writable.notify_one();
                return Ok(event);
            }
            if self.topic.closed.load(Ordering::SeqCst) {
                return Err(RecvError);
            }
            self.sub.readable.wait(&mut queue);
        }
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut queue = self.sub.queue.lock();
        if let Some(event) = queue.pop_front() {
            self.sub.writable.notify_one();
            return Ok(event);
        }
        if self.topic.closed.load(Ordering::SeqCst) {
            Err(TryRecvError::Closed)
        } else {
            Err(TryRecvError::Empty)
        }
    }
}

impl<T> Drop for Subscription<T> {
    fn drop(&mut self) {
        self.sub.detached.store(true, Ordering::SeqCst);
        let _queue = self.sub.queue.lock();
        // Unblock publishers waiting for space in this queue.
        self.sub.writable.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    /// Every event left in `sub` once its topic has closed.
    fn drain<T>(sub: &Subscription<T>) -> Vec<T> {
        std::iter::from_fn(|| sub.recv().ok()).collect()
    }

    #[test]
    fn fan_out_reaches_every_subscriber() {
        let topic: Topic<u32> = Topic::new("t");
        let a = topic.subscribe(Policy::Unbounded);
        let b = topic.subscribe(Policy::Block { capacity: 8 });
        for i in 0..5 {
            assert_eq!(topic.publish(i).unwrap(), 2);
        }
        topic.close();
        assert_eq!(drain(&a), vec![0, 1, 2, 3, 4]);
        assert_eq!(drain(&b), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn filtered_subscription_sees_matching_events_only() {
        let topic: Topic<u32> = Topic::new("t");
        let odd = topic.subscribe_filtered(Policy::Unbounded, |v| v % 2 == 1);
        for i in 0..6 {
            assert_eq!(topic.publish(i).unwrap(), (i % 2) as usize);
        }
        topic.close();
        assert_eq!(drain(&odd), vec![1, 3, 5]);
    }

    #[test]
    fn block_policy_applies_backpressure() {
        let topic: Topic<u32> = Topic::new("t");
        let sub = topic.subscribe(Policy::Block { capacity: 2 });
        let published = Arc::new(AtomicUsize::new(0));
        let counter = published.clone();
        let publisher = std::thread::spawn(move || {
            for i in 0..50 {
                topic.publish(i).unwrap();
                counter.fetch_add(1, Ordering::SeqCst);
            }
        });
        let mut seen = Vec::new();
        while seen.len() < 50 {
            seen.push(sub.recv().unwrap());
            // A publish returns only once its event is queued, so at most
            // `capacity` returned publishes are still unconsumed.
            assert!(
                published.load(Ordering::SeqCst) <= seen.len() + 2,
                "queue exceeded its bound"
            );
        }
        publisher.join().unwrap();
        assert_eq!(seen, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn close_wakes_blocked_receiver_and_fails_publish() {
        let topic: Topic<u32> = Topic::new("t");
        let sub = topic.subscribe(Policy::Unbounded);
        let waiter = std::thread::spawn(move || sub.recv());
        std::thread::sleep(Duration::from_millis(20));
        topic.close();
        assert_eq!(waiter.join().unwrap(), Err(RecvError));
        assert_eq!(topic.publish(1), Err(PublishError));
    }

    #[test]
    fn dropped_subscription_unblocks_publisher() {
        let topic: Topic<u32> = Topic::new("t");
        let sub = topic.subscribe(Policy::Block { capacity: 1 });
        topic.publish(0).unwrap();
        let publisher = std::thread::spawn(move || {
            // Blocks on the full queue until the subscription drops.
            topic.publish(1).unwrap();
            topic.publish(2).unwrap();
        });
        std::thread::sleep(Duration::from_millis(20));
        drop(sub);
        publisher.join().unwrap();
    }

    #[test]
    fn try_recv_reports_empty_then_event_then_closed() {
        let topic: Topic<u32> = Topic::new("t");
        let sub = topic.subscribe(Policy::Unbounded);
        assert_eq!(sub.try_recv(), Err(TryRecvError::Empty));
        topic.publish(9).unwrap();
        assert_eq!(sub.try_recv(), Ok(9));
        assert_eq!(sub.try_recv(), Err(TryRecvError::Empty));
        topic.close();
        assert_eq!(sub.try_recv(), Err(TryRecvError::Closed));
    }
}
