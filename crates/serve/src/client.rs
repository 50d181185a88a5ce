//! Blocking client for the serve endpoint.
//!
//! Wraps one TCP connection: synchronous request/response pairs, the
//! first request opening the session. Server-side refusals come back as
//! typed errors — a [`ServeResponse::Rejected`] maps onto
//! [`A4nnError::Saturated`] so callers (the load generator, scripted
//! clients) can branch on the failure class without string matching.

use crate::batcher::Classification;
use crate::protocol::{ModelInfo, ServeRequest, ServeResponse};
use a4nn_error::A4nnError;
use a4nn_net::{read_message, write_message};
use std::net::TcpStream;

/// One connected serve session.
pub struct ServeClient {
    reader: TcpStream,
    writer: TcpStream,
}

impl ServeClient {
    /// Connect to `addr`.
    pub fn connect(addr: &str) -> Result<Self, A4nnError> {
        let stream = TcpStream::connect(addr)
            .map_err(|e| A4nnError::Net(format!("connecting to serve endpoint {addr}: {e}")))?;
        let _ = stream.set_nodelay(true);
        let reader = stream
            .try_clone()
            .map_err(|e| A4nnError::Net(format!("cloning serve stream: {e}")))?;
        Ok(ServeClient {
            reader,
            writer: stream,
        })
    }

    /// Classify one image. `None` picks the server's default model.
    pub fn classify(
        &mut self,
        model_id: Option<u64>,
        channels: usize,
        height: usize,
        width: usize,
        pixels: Vec<f32>,
    ) -> Result<Classification, A4nnError> {
        self.send(&ServeRequest::Classify {
            model_id,
            channels,
            height,
            width,
            pixels,
        })?;
        match self.receive()? {
            ServeResponse::Classified {
                model_id,
                class,
                logits,
            } => Ok(Classification {
                model_id,
                class,
                logits,
            }),
            ServeResponse::Rejected { reason } => Err(A4nnError::Saturated(reason)),
            ServeResponse::Error { message } => Err(A4nnError::Config(message)),
            other => Err(A4nnError::Net(format!(
                "unexpected classify response {other:?}"
            ))),
        }
    }

    /// Fetch the Pareto menu.
    pub fn models(&mut self) -> Result<Vec<ModelInfo>, A4nnError> {
        self.send(&ServeRequest::Models)?;
        match self.receive()? {
            ServeResponse::Models(infos) => Ok(infos),
            other => Err(A4nnError::Net(format!(
                "unexpected models response {other:?}"
            ))),
        }
    }

    /// Close the session politely.
    pub fn goodbye(mut self) -> Result<(), A4nnError> {
        self.send(&ServeRequest::Goodbye)
    }

    fn send(&mut self, request: &ServeRequest) -> Result<(), A4nnError> {
        write_message(&mut self.writer, request)
            .map_err(|e| A4nnError::Net(format!("sending serve request: {e}")))
    }

    fn receive(&mut self) -> Result<ServeResponse, A4nnError> {
        match read_message::<_, ServeResponse>(&mut self.reader) {
            Ok(Some(response)) => Ok(response),
            Ok(None) => Err(A4nnError::Net(
                "serve connection closed mid-conversation".into(),
            )),
            Err(e) => Err(A4nnError::Net(format!("reading serve response: {e}"))),
        }
    }
}
